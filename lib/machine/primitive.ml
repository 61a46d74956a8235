type t =
  | Read
  | Write of Value.t
  | Cas of { expected : Value.t; desired : Value.t }
  | Tas
  | Faa of int
  | Fas of Value.t
  | Ll
  | Sc of Value.t
[@@deriving show { with_path = false }, eq]

let is_trivial = function Read | Ll -> true | _ -> false
let is_nontrivial p = not (is_trivial p)
let is_conditional = function Cas _ | Sc _ | Tas -> true | _ -> false

let is_rwc = function
  | Read | Write _ | Cas _ | Sc _ | Ll | Tas -> true
  | Faa _ | Fas _ -> false
