type t =
  | Unit
  | Bool of bool
  | Int of int
  | Pid of int
  | Pair of t * t
[@@deriving show { with_path = false }, eq, ord]

let nil_pid = Pid (-1)

(* Preallocated results for the primitive branches of Memory.apply:
   responses on the hot path must not allocate, and
   these are structurally equal to fresh constructors, so substituting them
   is invisible to [equal]/[compare]/[show]. *)
let true_ = Bool true
let false_ = Bool false
let bool_ b = if b then true_ else false_

(* Small-int cache covering -1 (sentinels) through 255 (loop counters,
   pids, small payloads) — the values the simulated algorithms actually
   traffic in. *)
let int_cache = Array.init 257 (fun i -> Int (i - 1))
let int_ n = if n >= -1 && n <= 255 then Array.unsafe_get int_cache (n + 1) else Int n

let bad expected v =
  invalid_arg (Printf.sprintf "Value.to_%s: got %s" expected (show v))

let to_int = function Int n -> n | v -> bad "int" v
let to_bool = function Bool b -> b | v -> bad "bool" v
let to_pid = function Pid p -> p | v -> bad "pid" v
let to_pair = function Pair (a, b) -> (a, b) | v -> bad "pair" v
