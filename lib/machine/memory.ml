type addr = int

(* Load-links are a pid bitmask for pids 0..61 (the explorer enforces
   nprocs <= 62); pids >= 62 — reachable only from direct Machine use, e.g.
   the Theorem 9 LL/SC sweeps — overflow into the cold [links_hi] list. *)
type cell = {
  mutable v : Value.t;
  init : Value.t;  (* value at [alloc] time, restored by [reset] *)
  name : string;  (* the allocator's name, shared by a whole array *)
  index : int;  (* position in that array, -1 for a scalar cell *)
  owner : int option;
  mutable links : int;  (* bitmask of pids < 62 holding a valid load-link *)
  mutable links_hi : int list;  (* pids >= 62 holding a valid load-link *)
}

type t = { mutable cells : cell array; mutable n : int }

let create () = { cells = [||]; n = 0 }

(* Filler for unallocated slots; never observable (reads bound-check
   against [n], and [alloc] overwrites the whole slot). *)
let dummy =
  { v = Value.Unit; init = Value.Unit; name = ""; index = -1; owner = None;
    links = 0; links_hi = [] }

let grow t =
  let cap = Array.length t.cells in
  if t.n >= cap then begin
    let fresh = Array.make (max 16 (2 * cap)) dummy in
    Array.blit t.cells 0 fresh 0 t.n;
    t.cells <- fresh
  end

(* A cell stores its allocator's name and its index, not the formatted
   [name[index]]: formatting one per cell cost most of the words set-up
   allocates, and only [name] reads it. *)
let push t ~name ~index owner v =
  grow t;
  let a = t.n in
  t.cells.(a) <- { v; init = v; name; index; owner; links = 0; links_hi = [] };
  t.n <- t.n + 1;
  a

let alloc t ?owner ?(index = -1) ~name v = push t ~name ~index owner v

let alloc_array t ~name n v =
  Array.init n (fun index -> push t ~name ~index None v)

let cell t a =
  if a < 0 || a >= t.n then invalid_arg "Memory: address out of range";
  t.cells.(a)

let link_valid c pid =
  if pid < 62 then c.links land (1 lsl pid) <> 0
  else match c.links_hi with [] -> false | links -> List.mem pid links

let clear_links c =
  c.links <- 0;
  (* Guard the write: links_hi is almost always already [] and skipping the
     store avoids a caml_modify on the hot path. *)
  match c.links_hi with [] -> () | _ -> c.links_hi <- []

let register_link c pid =
  if pid < 62 then c.links <- c.links lor (1 lsl pid)
  else if not (List.mem pid c.links_hi) then c.links_hi <- pid :: c.links_hi

(* The single semantic definition of every primitive, applied in place.
   Each branch installs the new value, returns the response and clears the
   cell's load-links exactly when the application writes (any unconditional
   write, a successful [Cas]/[Sc], [Tas] on [false], a nonzero [Faa]);
   responses come from the preallocated [Value] constructors so no step with
   a small-int or bool response allocates. Projection failures ([Tas] on a
   non-bool, [Faa] on a non-int) raise before any mutation. *)
let apply t ~pid a p =
  let c = cell t a in
  match p with
  | Primitive.Read -> c.v
  | Primitive.Ll ->
      register_link c pid;
      c.v
  | Primitive.Write v ->
      c.v <- v;
      clear_links c;
      Value.Unit
  | Primitive.Fas v ->
      let old = c.v in
      c.v <- v;
      clear_links c;
      old
  | Primitive.Cas { expected; desired } ->
      if Value.equal c.v expected then begin
        c.v <- desired;
        clear_links c;
        Value.true_
      end
      else Value.false_
  | Primitive.Tas ->
      let old = Value.to_bool c.v in
      c.v <- Value.true_;
      if not old then clear_links c;
      Value.bool_ old
  | Primitive.Faa k ->
      let n = Value.to_int c.v in
      c.v <- Value.int_ (n + k);
      if k <> 0 then clear_links c;
      Value.int_ n
  | Primitive.Sc v ->
      if link_valid c pid then begin
        c.v <- v;
        clear_links c;
        Value.true_
      end
      else Value.false_

(* Forget every cell at address [n] or above, returning the address space
   to an earlier [size]. Used by [Machine.reset] so that programs which
   allocate during execution (e.g. OSTM's per-transaction descriptors)
   re-allocate at the same addresses on every pooled re-run. *)
let truncate t n =
  if n < 0 || n > t.n then invalid_arg "Memory.truncate";
  if n < t.n then begin
    for a = n to t.n - 1 do
      t.cells.(a) <- dummy
    done;
    t.n <- n
  end

let reset t =
  for a = 0 to t.n - 1 do
    let c = t.cells.(a) in
    c.v <- c.init;
    c.links <- 0;
    match c.links_hi with [] -> () | _ -> c.links_hi <- []
  done

(* Snapshots copy cell values (immutable, so by pointer) and the pid < 62
   link bitmasks into caller-held growable buffers. [links_hi] is NOT
   captured: snapshots exist for the explorer, which caps nprocs at 62.
   [restore_from] clears any stray links_hi defensively. *)
type snapshot = {
  mutable s_vals : Value.t array;
  mutable s_links : int array;
  mutable s_n : int;
}

let snapshot_make () = { s_vals = [||]; s_links = [||]; s_n = 0 }

let snapshot_into t s =
  if Array.length s.s_vals < t.n then begin
    s.s_vals <- Array.make (max 16 t.n) Value.Unit;
    s.s_links <- Array.make (max 16 t.n) 0
  end;
  for a = 0 to t.n - 1 do
    let c = t.cells.(a) in
    Array.unsafe_set s.s_vals a c.v;
    Array.unsafe_set s.s_links a c.links
  done;
  s.s_n <- t.n

let restore_from t s =
  if s.s_n <> t.n then invalid_arg "Memory.restore_from: size mismatch";
  for a = 0 to t.n - 1 do
    let c = t.cells.(a) in
    c.v <- Array.unsafe_get s.s_vals a;
    c.links <- Array.unsafe_get s.s_links a;
    match c.links_hi with [] -> () | _ -> c.links_hi <- []
  done

let peek t a = (cell t a).v
let poke t a v = (cell t a).v <- v
let owner t a = (cell t a).owner

let name t a =
  let c = cell t a in
  if c.index < 0 then c.name else Printf.sprintf "%s[%d]" c.name c.index

let size t = t.n
