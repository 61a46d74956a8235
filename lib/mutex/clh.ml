(** The CLH queue lock (Craig; Landin & Hagersten): an implicit queue of
    single-flag nodes. A process enqueues its node with a fetch-and-store on
    the tail and spins on its {e predecessor's} node, which it then recycles
    as its own next node. O(1) RMRs per passage in CC models (the spin value
    is cached until the predecessor's single release write); not local-spin
    in DSM, where the predecessor's node is remote — the classic CC/DSM
    asymmetry opposite to {!Mcs}.

    The node-recycling bookkeeping (which node a process enqueues next,
    which node it spins on) is process-local program state, not a shared
    base object: it is kept in machine cells accessed with peek/poke, which
    produce no events — so it costs no steps, but is restored together with
    the rest of the machine when the explorer resets a pooled machine
    (plain OCaml arrays would leak the recycled pointers across runs). *)

open Ptm_machine

let name = "clh"

type t = {
  mem : Memory.t;
  tail : Memory.addr;  (* holds the address of the last node, as Int *)
  my_node : Memory.addr array;  (* cell: node to enqueue next, as Int *)
  my_pred : Memory.addr array;  (* cell: node being spun on, as Int *)
}

let create machine ~nprocs =
  (* one node per process plus the initial (released) node *)
  let initial =
    Machine.alloc machine ~name:"clh.node[init]" (Value.Bool false)
  in
  let tail = Machine.alloc machine ~name:"clh.tail" (Value.Int initial) in
  let node p =
    Machine.alloc machine ~name:"clh.node" ~index:p (Value.Bool false)
  in
  let local name p v = Machine.alloc machine ~name ~index:p (Value.Int v) in
  {
    mem = Machine.memory machine;
    tail;
    my_node = Array.init nprocs (fun p -> local "clh.my_node" p (node p));
    my_pred = Array.init nprocs (fun p -> local "clh.my_pred" p (-1));
  }

let get t a = Value.to_int (Memory.peek t.mem a)
let set t a v = Memory.poke t.mem a (Value.Int v)

let enter t ~pid =
  let node = get t t.my_node.(pid) in
  Proc.write node (Value.Bool true);
  let pred = Value.to_int (Proc.fas t.tail (Value.Int node)) in
  set t t.my_pred.(pid) pred;
  while Proc.read_bool pred do
    ()
  done

let exit_cs t ~pid =
  let node = get t t.my_node.(pid) in
  Proc.write node (Value.Bool false);
  (* recycle the predecessor's node as our next enqueue node *)
  set t t.my_node.(pid) (get t t.my_pred.(pid))
