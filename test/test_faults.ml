(* Fault-injection subsystem: spec parsing, machine-level crash/stall
   semantics, schedule-determinism of fault plans (QCheck), fault-budget
   exploration (including the budget-0 differential against the fault-free
   explorer), crash/stall/injected-abort behaviour of every registry TM,
   the Algorithm 1 deadlock-under-crash contrast, and the runner's back-off
   and livelock machinery. *)

open Ptm_machine
open Ptm_core

let of_q t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Fault spec syntax                                                   *)
(* ------------------------------------------------------------------ *)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      match Fault.parse (Fault.to_string spec) with
      | Ok spec' ->
          Alcotest.(check bool)
            (Fault.to_string spec ^ " round-trips") true (spec = spec')
      | Error msg -> Alcotest.failf "parse %s: %s" (Fault.to_string spec) msg)
    [
      Fault.crash ~pid:0 ~at:0;
      Fault.crash ~pid:7 ~at:123;
      Fault.stall ~pid:1 ~at:4 ~steps:1;
      Fault.stall ~pid:3 ~at:0 ~steps:9;
      Fault.abort ~pid:2 ~op:5;
    ]

let test_spec_rejects () =
  List.iter
    (fun s ->
      match Fault.parse s with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
      | Error _ -> ())
    [ ""; "crash"; "crash:0"; "crash:x@1"; "stall:0@2"; "stall:0@2+0";
      "abort:0@"; "pause:0@1"; "crash:0@1+2"; "crash:-1@0" ]

(* ------------------------------------------------------------------ *)
(* Machine-level crash and stall                                       *)
(* ------------------------------------------------------------------ *)

(* Each process applies [writes] faa steps to a shared counter. *)
let mk_counter ?(nprocs = 2) ?(writes = 4) () =
  let m = Machine.create ~nprocs () in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to nprocs - 1 do
    Machine.spawn m pid (fun () ->
        for _ = 1 to writes do
          ignore (Proc.faa c 1 : int)
        done)
  done;
  (m, c)

let counter m c = Value.to_int (Memory.peek (Machine.memory m) c)

let test_crash_halts () =
  let m, c = mk_counter () in
  Machine.set_faults m [ Fault.crash ~pid:0 ~at:2 ];
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.(check bool) "p0 halted" true (Machine.halted m 0);
  Alcotest.(check bool)
    "status Halted" true
    (Machine.status m 0 = Machine.Halted);
  Alcotest.(check bool) "p1 finished" true
    (Machine.status m 1 = Machine.Terminated);
  Alcotest.(check bool) "all done" true (Machine.all_done m);
  (* p0 applied 2 of its 4 writes, the trigger slot was consumed *)
  Alcotest.(check int) "p0 events" 2 (Machine.steps_of m 0);
  Alcotest.(check int) "p0 slots" 3 (Machine.scheds_of m 0);
  Alcotest.(check int) "counter = 2 + 4" 6 (counter m c);
  Alcotest.(check bool) "no crash flagged" false (Machine.any_crashed m);
  let crashed = ref false in
  Trace.iter (Machine.trace m) (fun e ->
      match e with
      | Trace.Note { note = Fault.Crashed { pid = 0 }; _ } -> crashed := true
      | _ -> ());
  Alcotest.(check bool) "Crashed note recorded" true !crashed

let test_stall_parks () =
  let m, c = mk_counter () in
  Machine.set_faults m [ Fault.stall ~pid:0 ~at:1 ~steps:3 ];
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.(check bool) "both finished" true (Machine.all_done m);
  Alcotest.(check int) "all writes applied" 8 (counter m c);
  Alcotest.(check int) "p0 events" 4 (Machine.steps_of m 0);
  Alcotest.(check int) "p0 slots = events + stall" 7 (Machine.scheds_of m 0);
  let stalled = ref false in
  Trace.iter (Machine.trace m) (fun e ->
      match e with
      | Trace.Note { note = Fault.Stalled { pid = 0; steps = 3 }; _ } ->
          stalled := true
      | _ -> ());
  Alcotest.(check bool) "Stalled note recorded" true !stalled

let test_validation () =
  let m, _ = mk_counter () in
  (match
     Machine.set_faults m
       [ Fault.crash ~pid:0 ~at:1; Fault.stall ~pid:0 ~at:1 ~steps:2 ]
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate slot accepted");
  (match Machine.set_faults m [ Fault.crash ~pid:9 ~at:0 ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range pid accepted");
  Sched.round_robin m;
  (match Machine.inject_crash m 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "inject_crash on terminated pid accepted");
  match Machine.inject_stall m 0 ~steps:2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "inject_stall on terminated pid accepted"

(* ------------------------------------------------------------------ *)
(* Determinism: same fault plan + same schedule => identical trace,    *)
(* across fresh machines and pooled restarts (QCheck)                  *)
(* ------------------------------------------------------------------ *)

let trace_string m =
  String.concat "\n"
    (List.map
       (Fmt.str "%a" (Trace.pp_entry ~pp_note:History.pp_note))
       (Trace.entries (Machine.trace m)))

type fault_scenario = {
  f_seed : int;
  f_nprocs : int;
  f_plan : Fault.spec list;
}

let fault_scenario_gen =
  QCheck2.Gen.(
    let* f_nprocs = int_range 2 3 in
    let* f_seed = int_range 0 1_000_000 in
    let* nfaults = int_range 0 3 in
    (* distinct (pid, at) pairs; at most one crash/stall per slot *)
    let* raw =
      list_size (return nfaults)
        (let* pid = int_range 0 (f_nprocs - 1) in
         let* at = int_range 0 7 in
         let* k = int_range 0 2 in
         return
           (match k with
           | 0 -> Fault.crash ~pid ~at
           | 1 -> Fault.stall ~pid ~at ~steps:((at mod 3) + 1)
           | _ -> Fault.abort ~pid ~op:at))
    in
    let f_plan =
      List.fold_left
        (fun acc s ->
          if
            List.exists
              (fun s' ->
                s'.Fault.pid = s.Fault.pid && s'.Fault.at = s.Fault.at)
              acc
          then acc
          else s :: acc)
        [] raw
    in
    return { f_seed; f_nprocs; f_plan })

let fault_scenario_print s =
  Printf.sprintf "{seed=%d procs=%d plan=[%s]}" s.f_seed s.f_nprocs
    (String.concat "; " (List.map Fault.to_string s.f_plan))

let prop_fault_determinism =
  QCheck2.Test.make ~count:60 ~name:"fault plan + schedule => one trace"
    ~print:fault_scenario_print fault_scenario_gen (fun s ->
      let mk () =
        let m, _ = mk_counter ~nprocs:s.f_nprocs ~writes:4 () in
        Machine.set_faults m s.f_plan;
        m
      in
      let m1 = mk () in
      Sched.random ~seed:s.f_seed m1;
      let t1 = trace_string m1 in
      (* fresh machine, same schedule *)
      let m2 = mk () in
      Sched.random ~seed:s.f_seed m2;
      let t2 = trace_string m2 in
      (* pooled restart of the first machine: the plan must survive *)
      Machine.restart m1;
      Sched.random ~seed:s.f_seed m1;
      let t3 = trace_string m1 in
      t1 = t2 && t1 = t3)

(* ------------------------------------------------------------------ *)
(* Explorer fault budgets                                              *)
(* ------------------------------------------------------------------ *)

(* Two processes contending for a TAS lock with occupancy assertions —
   the same shape test_explore pins down, rebuilt here so this binary is
   self-contained. [pre_stepped] adds a third process that reads the
   counter once and runs it to completion before returning: the tree is
   unchanged (a finished process is never scheduled), but an [mk] that
   steps the machine cannot be served by a restarted one, so every replay
   of that search builds its machine with [mk] where the plain fixture's
   replays restart pooled machines. *)
let mk_lock ?(pre_stepped = false) () =
  let nprocs = 2 in
  let m =
    Machine.create ~trace:Trace.Off
      ~nprocs:(if pre_stepped then nprocs + 1 else nprocs)
      ()
  in
  let module L = Ptm_mutex.Tas in
  let lock = L.create m ~nprocs in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  let occ = Machine.alloc m ~name:"occ" (Value.Int 0) in
  let mem = Machine.memory m in
  let occ_read () = Value.to_int (Memory.peek mem occ) in
  let occ_write o = Memory.poke mem occ (Value.Int o) in
  for pid = 0 to nprocs - 1 do
    Machine.spawn m pid (fun () ->
        L.enter lock ~pid;
        occ_write (occ_read () + 1);
        assert (occ_read () = 1);
        let v = Proc.read_int c in
        Proc.write c (Value.Int (v + 1));
        assert (occ_read () = 1);
        occ_write (occ_read () - 1);
        L.exit_cs lock ~pid)
  done;
  if pre_stepped then begin
    Machine.spawn m nprocs (fun () -> ignore (Proc.read_int c));
    ignore (Machine.step m nprocs : Machine.step_result)
  end;
  m

let key (s : Explore.stats) =
  (s.paths, s.cut, s.pruned, s.violations, s.first_violation, s.fault_branches)

let search ?(crashes = 0) ?(stalls = 0) ?pre_stepped mode =
  Explore.run ~mk:(mk_lock ?pre_stepped) ~max_steps:12 ~mode ~crashes ~stalls
    ()

(* Budget 0 is the fault-free search (fault_branches = 0), the same on
   pooled and on freshly built machines. *)
let test_budget0_differential () =
  List.iter
    (fun mode ->
      let s = search mode in
      Alcotest.(check int) "no fault branches" 0 s.Explore.fault_branches;
      let u = search ~pre_stepped:true mode in
      Alcotest.(check bool) "identical stats" true (key u = key s);
      Alcotest.(check int) "identical steps" s.Explore.steps u.Explore.steps)
    [ Explore.Naive; Explore.Dpor ]

(* With budgets on, fault branches must exist, safety must hold (a crashed
   lock holder blocks its peer — paths get cut, never violated), and the
   tallies must not depend on whether replays restart pooled machines. *)
let test_fault_budget_invariance () =
  List.iter
    (fun mode ->
      let s = search ~crashes:1 ~stalls:1 mode in
      Alcotest.(check bool)
        "fault branches explored" true
        (s.Explore.fault_branches > 0);
      Alcotest.(check int) "mutual exclusion holds under faults" 0
        s.Explore.violations;
      Alcotest.(check bool) "crashed holder cuts paths" true (s.Explore.cut > 0);
      let u = search ~crashes:1 ~stalls:1 ~pre_stepped:true mode in
      Alcotest.(check bool) "identical stats" true (key u = key s);
      Alcotest.(check int) "identical steps" s.Explore.steps u.Explore.steps)
    [ Explore.Naive; Explore.Dpor ]

(* The witness encoding: force a violation by crashing the peer of a
   buggy... rather, check that schedules containing fault actions decode:
   crash branches appear as pid lor 64, stall branches as pid lor 128. *)
let test_fault_budget_parallel () =
  let seq = search ~crashes:1 Explore.Naive in
  let par =
    Explore.run ~mk:mk_lock ~max_steps:12 ~mode:Explore.Naive ~domains:3
      ~crashes:1 ()
  in
  Alcotest.(check int) "paths agree" seq.Explore.paths par.Explore.paths;
  Alcotest.(check int) "cut agree" seq.Explore.cut par.Explore.cut;
  Alcotest.(check int)
    "faults agree" seq.Explore.fault_branches par.Explore.fault_branches;
  Alcotest.(check int) "violations agree" seq.Explore.violations
    par.Explore.violations

(* ------------------------------------------------------------------ *)
(* TM sweeps: stalled peer, crash-truncated histories, injected aborts *)
(* ------------------------------------------------------------------ *)

(* Three processes, two transactions each, all on one t-object. *)
let contended_workload =
  {
    Workload.nobjs = 1;
    procs =
      Array.init 3 (fun pid ->
          [ [ Workload.W (0, pid + 1) ]; [ Workload.R 0; Workload.W (0, 7) ] ]);
  }

let test_stalled_peer_sweep () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      let o =
        (* random schedule: lockstep round-robin retries can conflict
           forever (symmetric livelock); with desynchronized retries every
           transaction eventually commits *)
        Runner.run
          (module T)
          ~retries:200
          ~faults:[ Fault.stall ~pid:0 ~at:1 ~steps:40 ]
          ~schedule:(Runner.Random_sched 11) contended_workload
      in
      Alcotest.(check bool)
        (T.name ^ ": run completes under a stalled peer")
        false o.Runner.out_of_steps;
      Alcotest.(check int)
        (T.name ^ ": every transaction commits despite the stall")
        6 o.Runner.commits;
      Alcotest.(check bool)
        (T.name ^ ": history strictly serializable")
        true
        (Checker.is_ok (Checker.strictly_serializable o.Runner.history)))
    Ptm_tms.Registry.all

let not_falsified = function
  | Checker.Not_serializable r -> Alcotest.failf "not serializable: %s" r
  | Checker.Serializable _ | Checker.Dont_know _ -> ()

let test_crash_truncated_sweep () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      List.iter
        (fun at ->
          let o =
            Runner.run
              (module T)
              ~retries:3
              ~faults:[ Fault.crash ~pid:0 ~at ]
              ~max_steps:30_000
              ~schedule:(Runner.Random_sched (31 + at))
              contended_workload
          in
          (* A crashed process may hold base objects (sgl, undolog): the
             survivors then spin out the budget. The recorded history must
             stay strictly serializable either way. *)
          not_falsified (Checker.strictly_serializable o.Runner.history))
        [ 1; 4; 9 ])
    Ptm_tms.Registry.all

let test_injected_abort_exempt () =
  let w = { Workload.nobjs = 1; procs = [| [ [ Workload.W (0, 1) ] ] |] } in
  let o =
    Runner.run
      (module Ptm_tms.Dstm)
      ~faults:[ Fault.abort ~pid:0 ~op:0 ]
      ~schedule:Runner.Round_robin w
  in
  Alcotest.(check int) "no commit" 0 o.Runner.commits;
  Alcotest.(check int) "one aborted attempt" 1 o.Runner.aborts;
  Alcotest.(check (list int))
    "abort recorded as injected" [ 0 ] o.Runner.history.History.injected;
  let ok = function
    | Ok () -> true
    | Error m -> Alcotest.failf "progress checker flagged injected abort: %s" m
  in
  (* A t-sequential history whose only abort is injected violates nothing. *)
  Alcotest.(check bool)
    "sequential TM-progress exempts it" true
    (ok (Progress.check_sequential o.Runner.history));
  Alcotest.(check bool)
    "progressiveness exempts it" true
    (ok (Progress.check_progressive o.Runner.history));
  Alcotest.(check bool)
    "strong progressiveness exempts it" true
    (ok (Progress.check_strongly_progressive o.Runner.history));
  (* the same history with the injection marker dropped must be flagged *)
  let stripped = { o.Runner.history with History.injected = [] } in
  Alcotest.(check bool)
    "without the marker the abort is a violation" true
    (Result.is_error (Progress.check_sequential stripped))

(* ------------------------------------------------------------------ *)
(* Algorithm 1 under crash: the TM-built mutex deadlocks when the lock *)
(* holder crash-stops (expected — mutual exclusion forbids progress    *)
(* past a dead holder), unlike TM stalls, which Section 3 progress     *)
(* tolerates.                                                          *)
(* ------------------------------------------------------------------ *)

module LM = Ptm_mutex.Tm_mutex.Make (Ptm_tms.Dstm)

let mk_tm_mutex () =
  let nprocs = 2 in
  let m = Machine.create ~nprocs () in
  let lock = LM.create m ~nprocs in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to nprocs - 1 do
    Machine.spawn m pid (fun () ->
        LM.enter lock ~pid;
        let v = Proc.read_int c in
        Proc.write c (Value.Int (v + 1));
        LM.exit_cs lock ~pid)
  done;
  m

let test_algorithm1_deadlocks_under_crash () =
  (* sanity: fault-free, both critical sections complete *)
  let m = mk_tm_mutex () in
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.(check bool) "fault-free run completes" true (Machine.all_done m);
  (* crash p0 at each early slot; some placement must catch it inside its
     critical section (after the func() commit, before the hand-off),
     where p1 spins on Lock[1][0] forever: the scheduler runs out of
     steps with p1 still runnable. *)
  let deadlocks = ref 0 in
  for at = 0 to 39 do
    let m = mk_tm_mutex () in
    Machine.set_faults m [ Fault.crash ~pid:0 ~at ];
    match Sched.round_robin ~max_steps:20_000 m with
    | () -> Machine.check_crashes m
    | exception Sched.Out_of_steps ->
        incr deadlocks;
        Alcotest.(check bool)
          "survivor still runnable" true
          (Machine.is_runnable m 1)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "crash of the holder deadlocks the mutex (%d/40 slots)"
       !deadlocks)
    true (!deadlocks > 0)

(* ------------------------------------------------------------------ *)
(* Crash inside the sharded commit: the 2PC coordinator's death while  *)
(* it holds lock words starves the peer's shards (the lock-based       *)
(* liveness trade); the obstruction-free TM steals through the same    *)
(* corpse and finishes.                                                *)
(* ------------------------------------------------------------------ *)

(* Both processes write objects in two different shards of an .x4 TM, so
   try_commit holds two lock words; a crash while p0 holds one leaves p1
   spinning, in the stable-window loop or waiting to hold that shard,
   until the step budget runs out. The identical workload and fault
   plans drive ofree in the contrast test below. *)
let cross_shard_workload =
  {
    Workload.nobjs = 8;
    procs =
      Array.init 2 (fun pid ->
          [
            [ Workload.W (0, pid + 1); Workload.W (1, pid + 10) ];
            [ Workload.R 0; Workload.W (5, pid + 20) ];
          ]);
  }

let p1_commits o =
  List.length
    (List.filter
       (fun (t : History.txr) ->
         t.History.pid = 1 && t.History.status = History.Committed)
       o.Runner.history.History.txns)

let crash_sweep tm ~at =
  Runner.run tm ~retries:50
    ~faults:[ Fault.crash ~pid:0 ~at ]
    ~max_steps:20_000 ~livelock_window:64
    ~schedule:(Runner.Random_sched (17 + at))
    cross_shard_workload

let test_fence_crash_starves_sharded () =
  let tm = Option.get (Ptm_tms.Registry.by_name "sgl.x4") in
  let starved = ref 0 in
  for at = 0 to 39 do
    let o = crash_sweep tm ~at in
    (* safety always survives the holder crash... *)
    not_falsified (Checker.strictly_serializable o.Runner.history);
    if o.Runner.out_of_steps || o.Runner.starved <> [] || p1_commits o < 2
    then incr starved
  done;
  (* ...liveness must not: some crash placement catches p0 holding a
     lock word, and p1 never gets its transactions through. *)
  Alcotest.(check bool)
    (Printf.sprintf
       "a word-holding crash starves the peer's shards (%d/40 slots)"
       !starved)
    true (!starved > 0)

let test_fence_crash_ofree_survives () =
  for at = 0 to 39 do
    let o = crash_sweep (module Ptm_tms.Ofree) ~at in
    not_falsified (Checker.strictly_serializable o.Runner.history);
    Alcotest.(check bool)
      (Printf.sprintf "ofree never runs out of steps (crash at %d)" at)
      false o.Runner.out_of_steps;
    Alcotest.(check (list int))
      (Printf.sprintf "ofree never livelocks (crash at %d)" at)
      [] o.Runner.starved;
    Alcotest.(check int)
      (Printf.sprintf "p1 commits both transactions (crash at %d)" at)
      2 (p1_commits o)
  done

(* ------------------------------------------------------------------ *)
(* Back-off and livelock detection                                     *)
(* ------------------------------------------------------------------ *)

let test_backoff_consumes_steps () =
  let w = { Workload.nobjs = 1; procs = [| [ [ Workload.W (0, 1) ] ] |] } in
  let faults = [ Fault.abort ~pid:0 ~op:0; Fault.abort ~pid:0 ~op:1 ] in
  let run policy =
    Runner.run
      (module Ptm_tms.Dstm)
      ~retries:2 ~policy ~faults ~schedule:Runner.Round_robin w
  in
  let imm = run Runner.Immediate in
  let bo =
    run (Runner.Backoff { base = 4; factor = 2; cap = 16 })
  in
  Alcotest.(check int) "immediate: third attempt commits" 1 imm.Runner.commits;
  Alcotest.(check int) "backoff: third attempt commits" 1 bo.Runner.commits;
  Alcotest.(check int) "two injected aborts each" 2 bo.Runner.aborts;
  (* delays 4 then 8 are realized as 12 extra machine events *)
  Alcotest.(check int) "backoff waited 12 slots"
    (Machine.steps_of imm.Runner.machine 0 + 12)
    (Machine.steps_of bo.Runner.machine 0)

let test_backoff_cap () =
  let w = { Workload.nobjs = 1; procs = [| [ [ Workload.W (0, 1) ] ] |] } in
  let faults = List.init 5 (fun i -> Fault.abort ~pid:0 ~op:i) in
  let run policy =
    Runner.run
      (module Ptm_tms.Dstm)
      ~retries:5 ~policy ~faults ~schedule:Runner.Round_robin w
  in
  let imm = run Runner.Immediate in
  let o =
    run (Runner.Backoff { base = 1; factor = 10; cap = 5 })
  in
  Alcotest.(check int) "commits" 1 o.Runner.commits;
  Alcotest.(check int) "aborts" 5 o.Runner.aborts;
  (* delays 1, then 10 capped to 5 four times: 21 extra machine events *)
  Alcotest.(check int) "capped waits"
    (Machine.steps_of imm.Runner.machine 0 + 21)
    (Machine.steps_of o.Runner.machine 0)

(* The pid term spreads processes that abort in the same round: with two
   processes, before retry 1 pid 0 waits 2 and pid 1 waits 2 + 1*2/2 = 3
   (before retry 0 both wait 1). *)
let test_backoff_spreads_pids () =
  let w =
    {
      Workload.nobjs = 2;
      procs = [| [ [ Workload.W (0, 1) ] ]; [ [ Workload.W (1, 1) ] ] |];
    }
  in
  let faults =
    List.concat_map
      (fun pid -> [ Fault.abort ~pid ~op:0; Fault.abort ~pid ~op:1 ])
      [ 0; 1 ]
  in
  let run policy =
    Runner.run
      (module Ptm_tms.Dstm)
      ~retries:2 ~policy ~faults ~schedule:Runner.Round_robin w
  in
  let imm = run Runner.Immediate in
  let bo = run (Runner.Backoff { base = 1; factor = 2; cap = 16 }) in
  Alcotest.(check int) "both commit" 2 bo.Runner.commits;
  List.iter
    (fun (pid, waited) ->
      Alcotest.(check int)
        (Printf.sprintf "p%d waited %d slots" pid waited)
        (Machine.steps_of imm.Runner.machine pid + waited)
        (Machine.steps_of bo.Runner.machine pid))
    [ (0, 1 + 2); (1, 1 + 3) ]

(* A malformed back-off is rejected when the run starts, not when a retry
   is first delayed: this workload never aborts, so no retry happens. *)
let test_backoff_rejected_at_entry () =
  let w = { Workload.nobjs = 1; procs = [| [ [ Workload.W (0, 1) ] ] |] } in
  List.iter
    (fun (name, (base, factor, cap)) ->
      match
        Runner.run
          (module Ptm_tms.Dstm)
          ~policy:(Runner.Backoff { base; factor; cap })
          ~schedule:Runner.Round_robin w
      with
      | (_ : Runner.outcome) ->
          Alcotest.failf "%s: expected Invalid_argument" name
      | exception Invalid_argument _ -> ())
    [
      ("negative base", (-1, 2, 8));
      ("factor 0", (1, 0, 8));
      ("cap below base", (4, 2, 2));
    ]

let test_livelock_unit () =
  let d = Runner.Livelock.create ~window:3 ~nprocs:2 () in
  Runner.Livelock.record_abort d 0;
  Runner.Livelock.record_abort d 1;
  Alcotest.(check bool) "not yet" false (Runner.Livelock.tripped d);
  (* a commit anywhere resets the window *)
  Runner.Livelock.record_commit d 1;
  Runner.Livelock.record_abort d 0;
  Runner.Livelock.record_abort d 0;
  Alcotest.(check bool) "still not" false (Runner.Livelock.tripped d);
  Runner.Livelock.record_abort d 1;
  Alcotest.(check bool) "tripped" true (Runner.Livelock.tripped d);
  Alcotest.(check (list int)) "both starved" [ 0; 1 ] (Runner.Livelock.starved d);
  (* the starved set is latched at trip time *)
  Runner.Livelock.record_commit d 1;
  Alcotest.(check (list int)) "latched" [ 0; 1 ] (Runner.Livelock.starved d)

let test_livelock_terminates_seeded_loop () =
  (* Every t-operation of both processes is spuriously aborted: with a large
     retry budget the run would abort-retry ~200 times; the detector must
     end it early and name the starved processes. *)
  let w =
    {
      Workload.nobjs = 1;
      procs = Array.make 2 [ [ Workload.W (0, 1) ] ];
    }
  in
  let faults =
    List.concat_map
      (fun pid -> List.init 110 (fun op -> Fault.abort ~pid ~op))
      [ 0; 1 ]
  in
  let o =
    Runner.run
      (module Ptm_tms.Tl2)
      ~retries:100 ~faults ~livelock_window:8
      ~schedule:(Runner.Random_sched 5) w
  in
  Alcotest.(check int) "no commit" 0 o.Runner.commits;
  Alcotest.(check bool) "run terminated early" true (o.Runner.aborts < 30);
  Alcotest.(check bool) "starved pids named" true (o.Runner.starved <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "starved pid in range" true (p = 0 || p = 1))
    o.Runner.starved

let () =
  Alcotest.run "faults"
    [
      ("spec", [
        Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
        Alcotest.test_case "rejects" `Quick test_spec_rejects;
      ]);
      ("machine", [
        Alcotest.test_case "crash halts" `Quick test_crash_halts;
        Alcotest.test_case "stall parks" `Quick test_stall_parks;
        Alcotest.test_case "validation" `Quick test_validation;
      ]);
      ("determinism", [ of_q prop_fault_determinism ]);
      ("explore", [
        Alcotest.test_case "budget-0 differential" `Quick
          test_budget0_differential;
        Alcotest.test_case "fault budgets invariant across replay" `Quick
          test_fault_budget_invariance;
        Alcotest.test_case "fault budgets across domains" `Quick
          test_fault_budget_parallel;
      ]);
      ("tm", [
        Alcotest.test_case "registry commits under stalled peer" `Quick
          test_stalled_peer_sweep;
        Alcotest.test_case "crash-truncated histories serializable" `Quick
          test_crash_truncated_sweep;
        Alcotest.test_case "injected aborts exempt from progress" `Quick
          test_injected_abort_exempt;
      ]);
      ("fence-crash", [
        Alcotest.test_case "2PC fence crash starves sharded peer" `Quick
          test_fence_crash_starves_sharded;
        Alcotest.test_case "ofree commits through the same crash plans" `Quick
          test_fence_crash_ofree_survives;
      ]);
      ("algorithm1", [
        Alcotest.test_case "mutex deadlocks when holder crashes" `Quick
          test_algorithm1_deadlocks_under_crash;
      ]);
      ("runner", [
        Alcotest.test_case "backoff consumes machine steps" `Quick
          test_backoff_consumes_steps;
        Alcotest.test_case "backoff cap" `Quick test_backoff_cap;
        Alcotest.test_case "backoff spreads same-round retries" `Quick
          test_backoff_spreads_pids;
        Alcotest.test_case "bad backoff rejected at entry" `Quick
          test_backoff_rejected_at_entry;
        Alcotest.test_case "livelock unit" `Quick test_livelock_unit;
        Alcotest.test_case "livelock terminates seeded loop" `Quick
          test_livelock_terminates_seeded_loop;
      ]);
    ]
