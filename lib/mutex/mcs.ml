(** The MCS queue lock (Mellor-Crummey & Scott): each process owns a static
    queue node and spins only on its own [locked] flag, so a passage costs
    O(1) RMRs in both CC and DSM models — the gold standard the Ω(n log n)
    bound does not apply to because MCS uses fetch-and-store (not in the
    read/write/conditional class of Theorem 9). *)

open Ptm_machine

let name = "mcs"

let nil = Value.Pid (-1)

type t = {
  tail : Memory.addr;
  locked : Memory.addr array;  (* locked.(p) owned by p *)
  next : Memory.addr array;  (* next.(p) owned by p *)
}

let create machine ~nprocs =
  {
    tail = Machine.alloc machine ~name:"mcs.tail" nil;
    locked =
      Array.init nprocs (fun p ->
          Machine.alloc machine ~owner:p ~name:"mcs.locked" ~index:p
            (Value.Bool false));
    next =
      Array.init nprocs (fun p ->
          Machine.alloc machine ~owner:p ~name:"mcs.next" ~index:p nil);
  }

let enter t ~pid =
  Proc.write t.next.(pid) nil;
  let pred = Value.to_pid (Proc.fas t.tail (Value.Pid pid)) in
  if pred >= 0 then begin
    Proc.write t.locked.(pid) (Value.Bool true);
    Proc.write t.next.(pred) (Value.Pid pid);
    while Proc.read_bool t.locked.(pid) do
      ()
    done
  end

let exit_cs t ~pid =
  let succ = Value.to_pid (Proc.read t.next.(pid)) in
  if succ >= 0 then Proc.write t.locked.(succ) (Value.Bool false)
  else if Proc.cas t.tail ~expected:(Value.Pid pid) ~desired:nil then ()
  else begin
    (* a successor is linking itself in: wait for the link *)
    let rec wait () =
      let s = Value.to_pid (Proc.read t.next.(pid)) in
      if s >= 0 then s else wait ()
    in
    Proc.write t.locked.(wait ()) (Value.Bool false)
  end
