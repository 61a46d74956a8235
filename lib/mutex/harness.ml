open Ptm_machine

type result = {
  nprocs : int;
  rounds : int;
  total_steps : int;
  rmr : (Rmr.model * Rmr.counts) list;
  machine : Machine.t;
}

exception Mutual_exclusion_violation of string

let run (module L : Mutex_intf.S) ~nprocs ~rounds ?(schedule = `Round_robin)
    ?max_steps () =
  let machine = Machine.create ~nprocs () in
  let lock = L.create machine ~nprocs in
  let counter = Machine.alloc machine ~name:"cs.counter" (Value.Int 0) in
  let occupancy = ref 0 in
  let check pid =
    if !occupancy <> 1 then
      raise
        (Mutual_exclusion_violation
           (Printf.sprintf "p%d saw occupancy %d" pid !occupancy))
  in
  for pid = 0 to nprocs - 1 do
    Machine.spawn machine pid (fun () ->
        for _ = 1 to rounds do
          L.enter lock ~pid;
          incr occupancy;
          check pid;
          (* a non-atomic increment: any overlap loses updates and any
             interleaved entrant trips the occupancy check *)
          let v = Proc.read_int counter in
          Proc.write counter (Value.Int (v + 1));
          check pid;
          decr occupancy;
          L.exit_cs lock ~pid
        done)
  done;
  (match schedule with
  | `Round_robin -> Sched.round_robin ?max_steps machine
  | `Random seed -> Sched.random ~seed ?max_steps machine);
  Machine.check_crashes machine;
  let final = Value.to_int (Memory.peek (Machine.memory machine) counter) in
  if final <> nprocs * rounds then
    raise
      (Mutual_exclusion_violation
         (Printf.sprintf "lost updates: counter %d, expected %d" final
            (nprocs * rounds)));
  let total_steps =
    let s = ref 0 in
    for pid = 0 to nprocs - 1 do
      s := !s + Machine.steps_of machine pid
    done;
    !s
  in
  let rmr =
    List.map
      (fun model ->
        ( model,
          Rmr.count model ~nprocs (Machine.memory machine)
            (Machine.trace machine) ))
      Rmr.all_models
  in
  { nprocs; rounds; total_steps; rmr; machine }

let rmr_of r model = (List.assoc model r.rmr).Rmr.total

let explored (module L : Mutex_intf.S) ?(trace = Trace.Full) ~nprocs () =
  let m = Machine.create ~trace ~nprocs () in
  let lock = L.create m ~nprocs in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  (* Occupancy lives in a machine cell updated via peek/poke: no events, so
     the schedule tree is unchanged, and unlike a captured [ref] it is
     restored when the explorer resets a pooled machine. *)
  let occ = Machine.alloc m ~name:"occ" (Value.Int 0) in
  let mem = Machine.memory m in
  let occupancy () = Value.to_int (Memory.peek mem occ) in
  let set_occupancy o = Memory.poke mem occ (Value.Int o) in
  let check pid =
    let o = occupancy () in
    if o <> 1 then
      raise
        (Mutual_exclusion_violation
           (Printf.sprintf "p%d saw occupancy %d" pid o))
  in
  for pid = 0 to nprocs - 1 do
    Machine.spawn m pid (fun () ->
        L.enter lock ~pid;
        set_occupancy (occupancy () + 1);
        check pid;
        let v = Proc.read_int c in
        Proc.write c (Value.Int (v + 1));
        check pid;
        set_occupancy (occupancy () - 1);
        L.exit_cs lock ~pid)
  done;
  m
