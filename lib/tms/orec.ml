open Ptm_machine

let none = -1

let pack ~ver ~owner = Value.Pair (Value.Int ver, Value.Int owner)

let unpack v =
  let a, b = Value.to_pair v in
  (Value.to_int a, Value.to_int b)
