(* Fault injection end to end: stalls only delay, crashes truncate the
   history without breaking safety, a crashed lock holder starves its
   peers (and the livelock detector names them), injected aborts are
   retried for free, and back-off delays occupy real schedule slots.

     dune exec examples/faults_demo.exe
*)

open Ptm_machine
open Ptm_core

let w =
  Workload.random ~seed:9 ~nprocs:3 ~nobjs:3 ~txs_per_proc:2 ~ops_per_tx:3 ()

let total_txs = 6

let go (module T : Tm_intf.S) ?policy ?faults ?livelock_window () =
  Runner.run
    (module T)
    ~retries:200 ?policy ?faults ?livelock_window ~max_steps:100_000
    ~schedule:(Runner.Random_sched 3) w

let verdict o =
  match Checker.strictly_serializable o.Runner.history with
  | Checker.Not_serializable _ -> "NOT serializable"
  | Checker.Serializable _ -> "serializable"
  | Checker.Dont_know _ -> "don't know"

let report label o =
  Fmt.pr "%-28s commits %d/%d, aborted attempts %3d, %s%s@." label
    o.Runner.commits total_txs o.Runner.aborts (verdict o)
    (match o.Runner.starved with
    | [] -> ""
    | ps ->
        Fmt.str ", starved: %s"
          (String.concat "," (List.map string_of_int ps)))

let () =
  Fmt.pr
    "fault injection over a 3-process workload (tm: tl2 / undolog / ostm)@.@.";

  (* Baseline: no faults, everything commits. *)
  let base = go (module Ptm_tms.Tl2) () in
  report "tl2, no faults" base;
  assert (base.Runner.commits = total_txs);

  (* A stall only delays: process 0 loses 40 slots, rivals run meanwhile,
     and every transaction still commits. *)
  let stalled =
    go (module Ptm_tms.Tl2)
      ~faults:[ Fault.stall ~pid:0 ~at:1 ~steps:40 ]
      ()
  in
  report "tl2, stall:0@1+40" stalled;
  assert (stalled.Runner.commits = total_txs);

  (* Crash an eagerly locking TM mid-transaction: undolog acquires base
     objects at first write, so process 0 dies holding them, its rivals
     abort forever against the stale locks, and the livelock detector
     turns the livelock into a terminating run that names the starved
     processes. The truncated history stays safe: the crashed transaction
     is simply forever-pending. *)
  let crashed_undolog =
    go (module Ptm_tms.Undolog)
      ~faults:[ Fault.crash ~pid:0 ~at:4 ]
      ~livelock_window:64 ()
  in
  report "undolog, crash:0@4" crashed_undolog;
  assert (crashed_undolog.Runner.starved <> []);
  assert (verdict crashed_undolog <> "NOT serializable");

  (* The same crash under an obstruction-free TM: survivors finish. *)
  let crashed_ostm =
    go (module Ptm_tms.Ostm)
      ~faults:[ Fault.crash ~pid:0 ~at:4 ]
      ~livelock_window:64 ()
  in
  report "ostm, crash:0@4" crashed_ostm;
  assert (crashed_ostm.Runner.starved = []);
  assert (crashed_ostm.Runner.commits >= total_txs - 2);

  (* Injected aborts at a transaction's first operation are harmless: the
     attempt is re-issued and everything still commits. The history marks
     them (History.Tx_injected_abort), so the progress checkers do not
     blame the TM for aborts the harness caused. *)
  let aborted =
    go (module Ptm_tms.Tl2)
      ~faults:[ Fault.abort ~pid:0 ~op:0; Fault.abort ~pid:1 ~op:0 ]
      ()
  in
  report "tl2, abort:{0,1}@op0" aborted;
  assert (aborted.Runner.commits = total_txs);
  assert (List.length aborted.Runner.history.History.injected = 2);

  (* Exponential back-off realizes its delays as machine steps (trivial
     reads of a scratch cell), so waiting costs schedule slots that rivals
     can use — visible as extra steps for the delayed process. *)
  let backoff =
    go (module Ptm_tms.Tl2)
      ~policy:(Runner.Backoff { base = 2; factor = 2; cap = 16 })
      ~faults:[ Fault.abort ~pid:0 ~op:0; Fault.abort ~pid:0 ~op:1 ]
      ()
  in
  report "tl2, backoff after aborts" backoff;
  assert (backoff.Runner.commits = total_txs);
  let extra =
    Machine.steps_of backoff.Runner.machine 0
    - Machine.steps_of base.Runner.machine 0
  in
  Fmt.pr
    "@.back-off delays for process 0 consumed %d extra machine steps@." extra;
  assert (extra > 0);

  Fmt.pr
    "@.faults delay or truncate, never corrupt: every history above is@.\
     strictly serializable, and the livelock detector converts the one@.\
     genuine starvation (crashed lock holder) into a named verdict.@."
