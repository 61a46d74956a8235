(* Streaming opacity checker (Opacity_stream): litmus fixtures, the
   crash-inside-try-commit finalization regression, adversarial mutants
   (History.mutate — every seeded violation must be flagged), the runner
   monitor, and the differential harness against the offline checker:
   registry sweeps under fault plans, explorer leaf-by-leaf agreement, and
   a QCheck property over random step programs on both engines. *)

open Ptm_machine
open Ptm_core

let of_q t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Hand-built histories                                                *)
(* ------------------------------------------------------------------ *)

let entries_of notes =
  List.mapi (fun i (pid, note) -> Trace.Note { seq = i; pid; note }) notes

let inv pid tx op = (pid, History.Tx_inv { pid; tx; op })
let res pid tx op r = (pid, History.Tx_res { pid; tx; op; res = r })

let read_ pid tx x v =
  [ inv pid tx (History.Read x); res pid tx (History.Read x) (History.RVal v) ]

let write_ pid tx x v =
  [
    inv pid tx (History.Write (x, v));
    res pid tx (History.Write (x, v)) History.ROk;
  ]

let commit_ pid tx =
  [ inv pid tx History.Try_commit; res pid tx History.Try_commit History.RCommit ]

let abort_ pid tx =
  [ inv pid tx History.Try_commit; res pid tx History.Try_commit History.RAbort ]

let stream_verdict entries = fst (Opacity_stream.check_entries entries)

let check_opaque name entries =
  match stream_verdict entries with
  | Opacity_stream.Opaque -> ()
  | v ->
      Alcotest.failf "%s: expected opaque, got %a" name
        Opacity_stream.pp_verdict v

let check_violation name entries =
  match stream_verdict entries with
  | Opacity_stream.Violation _ -> ()
  | v ->
      Alcotest.failf "%s: expected a violation, got %a" name
        Opacity_stream.pp_verdict v

let check_reused name entries =
  match stream_verdict entries with
  | Opacity_stream.Violation
      { v_reason = "invocation on a completed transaction"; _ } ->
      ()
  | v ->
      Alcotest.failf "%s: expected a reused-id violation, got %a" name
        Opacity_stream.pp_verdict v

(* ------------------------------------------------------------------ *)
(* Litmus fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let test_litmus () =
  check_opaque "empty" (entries_of []);
  check_opaque "serial write then read"
    (entries_of
       (List.concat
          [ write_ 0 1 0 7; commit_ 0 1; read_ 1 2 0 7; commit_ 1 2 ]));
  check_violation "stale read after commit"
    (entries_of
       (List.concat
          [ write_ 0 1 0 7; commit_ 0 1; read_ 1 2 0 0; commit_ 1 2 ]));
  (* concurrent writer: reading the old value is legal (reader serializes
     first) *)
  check_opaque "concurrent old read"
    (entries_of
       (List.concat
          [
            write_ 0 1 0 7;
            read_ 1 2 0 0;
            commit_ 0 1;
            commit_ 1 2;
          ]));
  check_violation "dirty read from aborted writer"
    (entries_of
       (List.concat
          [ write_ 0 1 0 7; abort_ 0 1; read_ 1 2 0 7; commit_ 1 2 ]));
  (* lost update: both read 0, both write, both commit *)
  check_violation "lost update"
    (entries_of
       (List.concat
          [
            read_ 0 1 0 0;
            read_ 1 2 0 0;
            write_ 0 1 0 1;
            write_ 1 2 0 2;
            commit_ 0 1;
            commit_ 1 2;
          ]));
  (* even a LIVE transaction must see a consistent snapshot (opacity, not
     just strict serializability): t3 reads x old and y new across t1's
     commit of both *)
  check_violation "inconsistent live snapshot"
    (entries_of
       (List.concat
          [
            read_ 1 3 0 0;
            write_ 0 1 0 5;
            write_ 0 1 1 6;
            commit_ 0 1;
            read_ 1 3 1 6;
          ]))

(* Well-formedness: a response that does not match the pending invocation,
   and an invocation arriving with an operation still outstanding. *)
let test_well_formedness () =
  check_violation "response without invocation"
    (entries_of [ res 0 1 (History.Read 0) (History.RVal 0) ]);
  check_violation "mismatched response"
    (entries_of
       [
         inv 0 1 (History.Read 0);
         res 0 1 (History.Write (0, 1)) History.ROk;
       ]);
  check_violation "invocation with operation outstanding"
    (entries_of
       (write_ 0 1 0 1
       @ [ inv 0 1 History.Try_commit; inv 0 2 (History.Read 0) ]));
  (* a transaction that has completed must never invoke again, whatever
     the way it completed and whichever process invokes *)
  check_reused "invocation on a committed transaction"
    (entries_of (write_ 0 1 0 1 @ commit_ 0 1 @ [ inv 0 1 (History.Read 0) ]));
  check_reused "invocation on an aborted transaction"
    (entries_of (write_ 0 1 0 1 @ abort_ 0 1 @ [ inv 0 1 (History.Read 0) ]));
  check_reused "committed transaction invoked by another process"
    (entries_of (write_ 0 1 0 1 @ commit_ 0 1 @ [ inv 1 1 (History.Read 0) ]));
  check_reused "invocation after a read-only commit"
    (entries_of (read_ 0 1 0 0 @ commit_ 0 1 @ [ inv 0 1 (History.Read 0) ]));
  (* a pending commit already linearized (a later read saw its write) is
     still in flight: another process may invoke on it *)
  check_opaque "invocation on a linearized pending commit"
    (entries_of
       (write_ 0 1 0 3
       @ [ inv 0 1 History.Try_commit ]
       @ read_ 1 2 0 3
       @ [ inv 2 1 (History.Read 0) ]));
  (* ids need not arrive in order nor densely: an id never seen before is a
     new transaction, even below ids already completed *)
  check_opaque "first events out of id order"
    (entries_of
       (List.concat
          [ read_ 0 2 0 0; read_ 1 1 0 0; commit_ 0 2; commit_ 1 1 ]));
  check_opaque "lower id starting after a higher one committed"
    (entries_of
       (List.concat [ write_ 0 2 0 5; commit_ 0 2; read_ 1 1 0 5; commit_ 1 1 ]));
  let sparse =
    List.concat
      [
        write_ 0 1 0 1;
        commit_ 0 1;
        write_ 0 5 0 5;
        commit_ 0 5;
        read_ 0 100 0 5;
        commit_ 0 100;
      ]
  in
  check_opaque "sparse ids" (entries_of sparse);
  (* filling the gaps later starts new transactions (4 joins 5, 2 joins 1,
     3 bridges 1..2 and 4..5); the merged ids still count as completed *)
  let filled =
    sparse
    @ List.concat
        [
          read_ 0 4 0 5;
          commit_ 0 4;
          read_ 0 2 0 5;
          commit_ 0 2;
          read_ 0 3 0 5;
          commit_ 0 3;
        ]
  in
  check_opaque "gaps filled later" (entries_of filled);
  check_reused "invocation on an id inside a merged run"
    (entries_of (filled @ [ inv 1 4 (History.Read 0) ]))

(* ------------------------------------------------------------------ *)
(* Space: the checker's state is bounded by the live window            *)
(* ------------------------------------------------------------------ *)

(* The E15 serial shape: one process, transactions back to back, each
   writing object 0, reading it back and committing. *)
let serial_checker ntx =
  let chk = Opacity_stream.create () in
  for tx = 0 to ntx - 1 do
    let w = History.Write (0, tx) and r = History.Read 0 in
    List.iter (Opacity_stream.on_event chk)
      [
        Opacity_stream.Inv { pid = 0; tx; op = w };
        Opacity_stream.Res { pid = 0; tx; op = w; res = History.ROk };
        Opacity_stream.Inv { pid = 0; tx; op = r };
        Opacity_stream.Res { pid = 0; tx; op = r; res = History.RVal tx };
        Opacity_stream.Inv { pid = 0; tx; op = History.Try_commit };
        Opacity_stream.Res
          { pid = 0; tx; op = History.Try_commit; res = History.RCommit };
      ]
  done;
  chk

(* Everything the checker can reach stays under one ceiling at 10^4 and at
   10^5 transactions: no part of its state grows with the history. *)
let test_bounded_state () =
  let ceiling = 1024 in
  List.iter
    (fun ntx ->
      let chk = serial_checker ntx in
      (match Opacity_stream.verdict chk with
      | Opacity_stream.Opaque -> ()
      | v ->
          Alcotest.failf "%d transactions: %a" ntx Opacity_stream.pp_verdict v);
      let words = Obj.reachable_words (Obj.repr chk) in
      if words > ceiling then
        Alcotest.failf "%d transactions: the checker holds %d words (ceiling %d)"
          ntx words ceiling)
    [ 10_000; 100_000 ]

(* Twenty writers each wait in try-commit on their own object, then a
   reader sees the first writer's value: the read is consistent only after
   some pending commits linearize, and the closure of their subsets and
   orders has far more than 4 x 256 states. The checker latches
   Inconclusive at the read and names that bound; an alarm turns a
   checker that enumerates the whole closure into a failure, not a hang. *)
exception Timed_out

let test_expansion_bounded () =
  let writers = 20 in
  let pending =
    List.concat_map
      (fun w -> write_ w w w 1 @ [ inv w w History.Try_commit ])
      (List.init writers Fun.id)
  in
  let entries = entries_of (pending @ read_ writers writers 0 1) in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  let verdict =
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.alarm 0 : int);
        Sys.set_signal Sys.sigalrm previous)
      (fun () ->
        ignore (Unix.alarm 10 : int);
        try Some (stream_verdict entries) with Timed_out -> None)
  in
  match verdict with
  | None -> Alcotest.fail "the checker ran for more than 10 s"
  | Some (Opacity_stream.Inconclusive msg) ->
      let read_seq = (3 * writers) + 1 in
      Alcotest.(check string)
        "names the bound and the read"
        (Printf.sprintf
           "commit linearizations exceeded 1024 states (4 x the frontier \
            cap) at seq %d"
           read_seq)
        msg
  | Some v ->
      Alcotest.failf "expected inconclusive, got %a" Opacity_stream.pp_verdict
        v

(* ------------------------------------------------------------------ *)
(* Crash-truncation finalization (the try-commit ride-along bugfix)    *)
(* ------------------------------------------------------------------ *)

(* A try-commit that never gets its response (crash inside try-commit) is
   completed either way at finalization — committed where later events
   forced it, aborted otherwise — exactly like the offline checker's
   completion search. *)
let test_crash_inside_try_commit () =
  let offline entries =
    Checker.opaque (History.of_entries entries)
  in
  let agree name entries expect_ok =
    let sv = stream_verdict entries in
    let ov = offline entries in
    let s_ok = Opacity_stream.is_ok sv in
    let o_ok = match ov with Checker.Serializable _ -> true | _ -> false in
    Alcotest.(check bool) (name ^ ": streaming") expect_ok s_ok;
    Alcotest.(check bool) (name ^ ": offline agrees") expect_ok o_ok
  in
  (* pending commit may complete as aborted: nothing observed it *)
  agree "forever-pending try-commit alone"
    (entries_of
       (write_ 0 1 0 3 @ [ inv 0 1 History.Try_commit ]))
    true;
  (* pending commit is forced to have committed: a later reader saw it *)
  agree "pending commit observed by later read"
    (entries_of
       (write_ 0 1 0 3
       @ [ inv 0 1 History.Try_commit ]
       @ read_ 1 2 0 3 @ commit_ 1 2))
    true;
  (* an ABORTED commit must stay unobservable even when truncated after *)
  agree "aborted commit observed after truncation"
    (entries_of
       (write_ 0 1 0 3 @ abort_ 0 1 @ read_ 1 2 0 3
       @ [ inv 1 2 History.Try_commit ]))
    false;
  (* a read left pending by the crash (no response) is no violation *)
  agree "crash inside read"
    (entries_of
       (write_ 0 1 0 3 @ commit_ 0 1 @ [ inv 1 2 (History.Read 0) ]))
    true

(* ------------------------------------------------------------------ *)
(* Adversarial mutants                                                 *)
(* ------------------------------------------------------------------ *)

(* A serial base with unique values exercising every mutation kind:
   committed overwrites of one object, an aborted writer, and trailing
   committed readers. Serial + unique values make every mutant a definite
   opacity violation (no reordering can legalize it). *)
let mutation_base () =
  entries_of
    (List.concat
       [
         write_ 0 1 0 1;
         write_ 0 1 1 5;
         commit_ 0 1;
         write_ 1 2 1 9;
         abort_ 1 2;
         write_ 0 3 0 2;
         commit_ 0 3;
         read_ 1 4 0 2;
         read_ 1 4 1 5;
         commit_ 1 4;
         read_ 0 5 0 2;
         commit_ 0 5;
       ])

let test_mutants_flagged () =
  let base = mutation_base () in
  check_opaque "mutation base is opaque" base;
  List.iter
    (fun kind ->
      let mutants = History.mutate kind base in
      if mutants = [] then
        Alcotest.failf "no %a mutants generated" History.pp_mutation kind;
      List.iteri
        (fun i mutant ->
          match stream_verdict mutant with
          | Opacity_stream.Violation _ -> ()
          | v ->
              Alcotest.failf "%a mutant %d not flagged: %a" History.pp_mutation
                kind i Opacity_stream.pp_verdict v)
        mutants)
    [
      History.Swap_commit_order;
      History.Stale_read;
      History.Resurrect_aborted_write;
      History.Drop_commit_response;
    ]

(* The single-response mutants are genuine opacity violations, so the
   offline checker must reject them too (Drop_commit_response is excluded:
   it is a well-formedness violation only the streaming checker's
   outstanding-operation tracking can see — the offline checker works from
   reconstructed transaction records and may complete the commit). *)
let test_mutants_offline_cross_check () =
  let base = mutation_base () in
  List.iter
    (fun kind ->
      List.iteri
        (fun i mutant ->
          match Checker.opaque (History.of_entries mutant) with
          | Checker.Not_serializable _ -> ()
          | v ->
              Alcotest.failf "offline missed %a mutant %d: %a"
                History.pp_mutation kind i Checker.pp_verdict v)
        (History.mutate kind base))
    [ History.Swap_commit_order; History.Stale_read;
      History.Resurrect_aborted_write ]

(* Mutants of real runner histories: every mutant of a serial (round-robin,
   single-process) run must be flagged by the streaming checker. *)
let test_mutants_of_runner_history () =
  let w =
    Workload.random ~seed:11 ~nprocs:1 ~nobjs:2 ~txs_per_proc:4 ~ops_per_tx:3
      ()
  in
  let o =
    Runner.run (module Ptm_tms.Tl2) ~retries:2 ~schedule:Runner.Round_robin w
  in
  let base = Trace.entries (Machine.trace o.Runner.machine) in
  Alcotest.(check bool)
    "runner base is opaque" true
    (Opacity_stream.is_ok (stream_verdict base));
  let total = ref 0 in
  List.iter
    (fun kind ->
      List.iteri
        (fun i mutant ->
          incr total;
          match stream_verdict mutant with
          | Opacity_stream.Violation _ -> ()
          | v ->
              Alcotest.failf "runner-history %a mutant %d not flagged: %a"
                History.pp_mutation kind i Opacity_stream.pp_verdict v)
        (History.mutate kind base))
    [
      History.Swap_commit_order;
      History.Stale_read;
      History.Resurrect_aborted_write;
      History.Drop_commit_response;
    ];
  if !total = 0 then Alcotest.fail "runner history produced no mutants"

(* ------------------------------------------------------------------ *)
(* Runner monitor                                                      *)
(* ------------------------------------------------------------------ *)

let fault_plans =
  [
    [];
    [ Fault.stall ~pid:0 ~at:1 ~steps:30 ];
    [ Fault.crash ~pid:0 ~at:4 ];
    [ Fault.crash ~pid:1 ~at:2; Fault.stall ~pid:2 ~at:3 ~steps:12 ];
    [ Fault.abort ~pid:0 ~op:0; Fault.abort ~pid:2 ~op:0 ];
    [ Fault.crash ~pid:2 ~at:5; Fault.abort ~pid:1 ~op:0 ];
  ]

let run_monitored (module T : Tm_intf.S) ~seed ~monitor faults =
  let w =
    Workload.random ~seed ~nprocs:3 ~nobjs:2 ~txs_per_proc:2 ~ops_per_tx:3 ()
  in
  Runner.run
    (module T)
    ~retries:2 ~faults ~max_steps:60_000 ~monitor
    ~schedule:(Runner.Random_sched seed) w

(* A monitored violation-free run is indistinguishable from an unmonitored
   one, and the monitor's verdict is Opaque. *)
let test_monitor_transparent () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      let a = run_monitored (module T) ~seed:5 ~monitor:false []
      and b = run_monitored (module T) ~seed:5 ~monitor:true [] in
      Alcotest.(check bool)
        (T.name ^ ": same history") true
        (a.Runner.history = b.Runner.history);
      Alcotest.(check int) (T.name ^ ": same commits") a.Runner.commits
        b.Runner.commits;
      Alcotest.(check int) (T.name ^ ": same aborts") a.Runner.aborts
        b.Runner.aborts;
      (match a.Runner.verdict with
      | None -> ()
      | Some _ ->
          Alcotest.failf "%s: unmonitored run reports a monitor" T.name);
      match b.Runner.verdict with
      | Some Opacity_stream.Opaque -> ()
      | Some (Opacity_stream.Violation v) ->
          Alcotest.failf "%s: monitor flagged a correct TM: %a" T.name
            Opacity_stream.pp_violation v
      | _ -> Alcotest.failf "%s: expected Opaque" T.name)
    Ptm_tms.Registry.all

(* Registry sweep under fault plans: the monitor's verdict agrees with the
   offline checker on every run. *)
let test_monitor_differential_sweep () =
  let runs = ref 0 in
  List.iter
    (fun (module T : Tm_intf.S) ->
      List.iter
        (fun faults ->
          List.iter
            (fun seed ->
              incr runs;
              let o =
                run_monitored
                  (module T)
                  ~seed ~monitor:true faults
              in
              let offline = Checker.opaque o.Runner.history in
              match (o.Runner.verdict, offline) with
              | Some Opacity_stream.Opaque, Checker.Serializable _ -> ()
              | Some Opacity_stream.Opaque, Checker.Dont_know _
              | Some (Opacity_stream.Inconclusive _), _ ->
                  ()
              | Some (Opacity_stream.Violation _), Checker.Not_serializable _
                ->
                  ()
              | m, v ->
                  Alcotest.failf
                    "%s seed %d: monitor and offline disagree (%a vs %a)"
                    T.name seed
                    Fmt.(
                      option ~none:(any "not monitored")
                        Opacity_stream.pp_verdict)
                    m Checker.pp_verdict v)
            [ 1; 2; 3; 4 ])
        fault_plans)
    Ptm_tms.Registry.all;
  Alcotest.(check bool) "swept some runs" true (!runs > 50)

(* ------------------------------------------------------------------ *)
(* Explorer leaf-by-leaf differential                                  *)
(* ------------------------------------------------------------------ *)

(* The E14-style two-process TM conflict workload, one attempt each, as
   the direct instance on Fibers; the [final] predicate cross-checks both
   checkers on every leaf. *)
let mk_tm_leaf tm () =
  let m = Machine.create ~trace:Trace.Full ~nprocs:2 () in
  Runner.spawn m tm ~retries:0
    Workload.
      {
        nobjs = 2;
        procs = [| [ [ R 0; W (1, 10) ] ]; [ [ W (0, 20); R 1 ] ] |];
      };
  m

let leaf_agreement ~crashes ((module T : Tm_intf.Both) as tm) =
  let checked = ref 0 in
  let final m =
    incr checked;
    let entries = Trace.entries (Machine.trace m) in
    let sv = fst (Opacity_stream.check_entries entries) in
    let ov = Checker.opaque (History.of_entries entries) in
    match (ov, sv) with
    | Checker.Dont_know _, _ | _, Opacity_stream.Inconclusive _ -> true
    | Checker.Serializable _, Opacity_stream.Opaque -> true
    | Checker.Not_serializable _, Opacity_stream.Violation _ -> false
    | _ -> false
  in
  let s =
    Explore.run ~mk:(mk_tm_leaf tm) ~final ~max_steps:60 ~max_paths:200_000
      ~mode:Explore.Dpor ~crashes ()
  in
  Alcotest.(check int)
    (T.name ^ ": no leaf disagreed (or failed both checkers)")
    0 s.Explore.violations;
  Alcotest.(check bool) (T.name ^ ": leaves checked") true (!checked > 0)

(* The five TMs that were first written in step form. *)
let leaf_tms : Ptm_tms.Registry.entry list =
  Ptm_tms.
    [ (module Undolog); (module Ostm); (module Norec); (module Sgl);
      (module Ofree) ]

let test_explorer_leaf_differential () =
  List.iter (fun tm -> leaf_agreement ~crashes:0 tm) leaf_tms

let test_explorer_leaf_differential_crashes () =
  (* crash budget 1: leaves include crash-truncated histories *)
  leaf_agreement ~crashes:1 (module Ptm_tms.Norec : Tm_intf.Both)

(* ------------------------------------------------------------------ *)
(* QCheck: random programs, both instances, replay invariance          *)
(* ------------------------------------------------------------------ *)

(* Build a random per-process transaction program (reads/writes over a tiny
   object set), run it to quiescence in the engine's form (the direct
   instance on Fibers, the step instance on Steps) under a random fault
   plan, and return the recorded entries. *)
let random_run ~rng_seed engine =
  let rng = Random.State.make [| rng_seed |] in
  let nprocs = 2 + Random.State.int rng 2 in
  let nobjs = 2 in
  let tm = List.nth leaf_tms (Random.State.int rng (List.length leaf_tms)) in
  let procs =
    (* per pid: txs_per_proc transactions of ops_per_tx random ops; drawn
       BEFORE the machine exists so both engines replay the same program *)
    Array.init nprocs (fun _ ->
        List.init
          (1 + Random.State.int rng 2)
          (fun _ ->
            List.init
              (1 + Random.State.int rng 3)
              (fun _ ->
                let x = Random.State.int rng nobjs in
                if Random.State.bool rng then Workload.R x
                else Workload.W (x, 1 + Random.State.int rng 5))))
  in
  let faults =
    match Random.State.int rng 4 with
    | 0 -> []
    | 1 ->
        [
          Fault.crash
            ~pid:(Random.State.int rng nprocs)
            ~at:(1 + Random.State.int rng 6);
        ]
    | 2 ->
        [
          Fault.stall
            ~pid:(Random.State.int rng nprocs)
            ~at:(1 + Random.State.int rng 4)
            ~steps:(5 + Random.State.int rng 20);
        ]
    | _ -> [ Fault.abort ~pid:(Random.State.int rng nprocs) ~op:0 ]
  in
  let m = Machine.create ~trace:Trace.Full ~engine ~nprocs () in
  Machine.set_faults m faults;
  Runner.spawn m tm ~retries:2 { Workload.nobjs; procs };
  (try Sched.round_robin ~max_steps:20_000 m with Sched.Out_of_steps -> ());
  Trace.entries (Machine.trace m)

let qcheck_engine_invariance =
  QCheck.Test.make ~count:220 ~name:"stream verdict: engines, replay, offline"
    QCheck.(int_bound 1_000_000)
    (fun rng_seed ->
      let ef = random_run ~rng_seed Machine.Fibers in
      let es = random_run ~rng_seed Machine.Steps in
      let vf = fst (Opacity_stream.check_entries ef) in
      let vs = fst (Opacity_stream.check_entries es) in
      (* engine invariance: same program, same schedule, same verdict *)
      if vf <> vs then
        QCheck.Test.fail_reportf "engines disagree: %a vs %a"
          Opacity_stream.pp_verdict vf Opacity_stream.pp_verdict vs;
      (* replay invariance: incremental feeding (observer-style) matches the
         one-shot check *)
      let inc = Opacity_stream.create () in
      List.iter (Opacity_stream.on_entry inc) ef;
      if Opacity_stream.verdict inc <> vf then
        QCheck.Test.fail_reportf "incremental replay changed the verdict";
      (* checkpoint/resume: verdicts over every prefix are monotone — once
         latched, feeding the suffix cannot un-latch — and the final verdict
         matches *)
      let half = List.length ef / 2 in
      let pre = List.filteri (fun i _ -> i < half) ef
      and post = List.filteri (fun i _ -> i >= half) ef in
      let resumed = Opacity_stream.create () in
      List.iter (Opacity_stream.on_entry resumed) pre;
      List.iter (Opacity_stream.on_entry resumed) post;
      if Opacity_stream.verdict resumed <> vf then
        QCheck.Test.fail_reportf "split replay changed the verdict";
      (* offline agreement *)
      (match (Checker.opaque (History.of_entries ef), vf) with
      | Checker.Dont_know _, _ | _, Opacity_stream.Inconclusive _ -> ()
      | Checker.Serializable _, Opacity_stream.Opaque -> ()
      | Checker.Not_serializable _, Opacity_stream.Violation _ -> ()
      | ov, sv ->
          QCheck.Test.fail_reportf "offline %a vs streaming %a"
            Checker.pp_verdict ov Opacity_stream.pp_verdict sv);
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "opacity_stream"
    [
      ( "litmus",
        [
          Alcotest.test_case "fixtures" `Quick test_litmus;
          Alcotest.test_case "well-formedness" `Quick test_well_formedness;
          Alcotest.test_case "crash inside try-commit" `Quick
            test_crash_inside_try_commit;
        ] );
      ( "space",
        [
          Alcotest.test_case "bounded by the live window" `Quick
            test_bounded_state;
          Alcotest.test_case "commit linearization bounded" `Quick
            test_expansion_bounded;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "streaming flags every mutant" `Quick
            test_mutants_flagged;
          Alcotest.test_case "offline cross-check" `Quick
            test_mutants_offline_cross_check;
          Alcotest.test_case "runner-history mutants" `Quick
            test_mutants_of_runner_history;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "transparent on clean runs" `Quick
            test_monitor_transparent;
          Alcotest.test_case "differential sweep under faults" `Quick
            test_monitor_differential_sweep;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "leaf-by-leaf agreement" `Quick
            test_explorer_leaf_differential;
          Alcotest.test_case "leaf agreement under crash budget" `Quick
            test_explorer_leaf_differential_crashes;
        ] );
      ("qcheck", [ of_q qcheck_engine_invariance ]);
    ]
