(** Anderson's array queue lock (the paper's reference [2]): a
    fetch-and-increment ticket indexes into a ring of spin slots, so each
    waiter spins on its own slot and a release invalidates exactly one
    waiter's cache line. O(1) RMRs per passage in CC models; not local-spin
    in DSM (slots rotate among processes). *)

open Ptm_machine

let name = "anderson"

type t = {
  slots : Memory.addr array;
  next : Memory.addr;
  my_slot : int array;  (* process-local bookkeeping *)
}

let create machine ~nprocs =
  let slots =
    Array.init nprocs (fun i ->
        Machine.alloc machine ~name:"anderson.slot" ~index:i
          (Value.Bool (i = 0)))
  in
  {
    slots;
    next = Machine.alloc machine ~name:"anderson.next" (Value.Int 0);
    my_slot = Array.make nprocs 0;
  }

let enter t ~pid =
  let n = Array.length t.slots in
  let ticket = Proc.faa t.next 1 in
  let slot = ticket mod n in
  t.my_slot.(pid) <- slot;
  while not (Proc.read_bool t.slots.(slot)) do
    ()
  done

let exit_cs t ~pid =
  let n = Array.length t.slots in
  let slot = t.my_slot.(pid) in
  Proc.write t.slots.(slot) (Value.Bool false);
  Proc.write t.slots.((slot + 1) mod n) (Value.Bool true)
