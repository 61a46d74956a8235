(* The obstruction-free arm: contention-manager decision semantics, the
   ofree-vs-dstm differential (random workloads x fault plans, streaming
   and offline checkers agreeing on every run), DPOR engine bit-identity
   for every CM variant, and crash-survival — ofree steals through a
   crashed owner where the lock-based acquire blocks, with the
   Greedy/Timestamp starvation weakness pinned as a fact rather than
   papered over. *)

open Ptm_machine
open Ptm_core

let of_q t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Contention-manager decision semantics                               *)
(* ------------------------------------------------------------------ *)

let mk_cm kind = Cm.create (Machine.create ~nprocs:3 ()) kind

let dec = Alcotest.testable (fun ppf d ->
    Fmt.string ppf
      (match d with
      | Cm.Steal -> "Steal"
      | Cm.Wait -> "Wait"
      | Cm.Self_abort -> "Self_abort"))
    ( = )

let test_cm_aggressive () =
  let d = mk_cm Cm.Aggressive in
  List.iter
    (fun waited ->
      Alcotest.check dec "always steals" Cm.Steal
        (Cm.decide d ~pid:0 ~owner:1 ~waited))
    [ 0; 1; 100 ]

let test_cm_polite () =
  let d = mk_cm Cm.Polite in
  for waited = 0 to 3 do
    Alcotest.check dec "spins while patient" Cm.Wait
      (Cm.decide d ~pid:0 ~owner:1 ~waited)
  done;
  Alcotest.check dec "patience exhausted: steals" Cm.Steal
    (Cm.decide d ~pid:0 ~owner:1 ~waited:4)

let test_cm_karma () =
  let d = mk_cm Cm.Karma in
  (* equal karma (both 0): steal immediately *)
  Alcotest.check dec "equal karma steals" Cm.Steal
    (Cm.decide d ~pid:0 ~owner:1 ~waited:0);
  (* the owner has opened three objects: the poorer transaction waits,
     but each wait accrues karma, so the fourth look steals — every
     waiter eventually gets through (that is what keeps Karma
     obstruction-free even against a crashed rich owner) *)
  for _ = 1 to 3 do Cm.on_open d ~pid:1 done;
  for look = 1 to 3 do
    Alcotest.check dec
      (Printf.sprintf "poorer waits (look %d)" look)
      Cm.Wait
      (Cm.decide d ~pid:0 ~owner:1 ~waited:(look - 1))
  done;
  Alcotest.check dec "accrued karma steals" Cm.Steal
    (Cm.decide d ~pid:0 ~owner:1 ~waited:3);
  (* commit resets the winner's karma *)
  Cm.on_commit d ~pid:1;
  Alcotest.check dec "reset owner is poor again" Cm.Steal
    (Cm.decide d ~pid:2 ~owner:1 ~waited:0)

let test_cm_timestamp () =
  let d = mk_cm Cm.Timestamp in
  (* p0 hits the first conflict and draws the oldest timestamp; the
     never-conflicted owner it is looking at counts as younger *)
  Alcotest.check dec "elder vs unborn owner: steals" Cm.Steal
    (Cm.decide d ~pid:0 ~owner:2 ~waited:0);
  (* p1 draws a younger stamp: it must wait for the elder... *)
  for waited = 0 to 7 do
    Alcotest.check dec "younger waits" Cm.Wait
      (Cm.decide d ~pid:1 ~owner:0 ~waited)
  done;
  (* ...and past its patience it aborts itself, never the elder (Greedy:
     the stamp is kept across the retry, so against a crashed elder this
     loops — the starvation test below pins that down) *)
  Alcotest.check dec "younger gives up on itself" Cm.Self_abort
    (Cm.decide d ~pid:1 ~owner:0 ~waited:8);
  (* the elder steals from the younger without waiting *)
  Alcotest.check dec "elder steals" Cm.Steal
    (Cm.decide d ~pid:0 ~owner:1 ~waited:0);
  (* commit re-births: the committed elder's next transaction is younger
     than the still-running p1 *)
  Cm.on_commit d ~pid:0;
  Alcotest.check dec "re-born owner counts as younger" Cm.Steal
    (Cm.decide d ~pid:1 ~owner:0 ~waited:0)

(* ------------------------------------------------------------------ *)
(* Crash-survival: steal from the corpse                               *)
(* ------------------------------------------------------------------ *)

(* Two processes, one object, two write transactions each: every crash
   placement of p0 leaves at most a corpse-owned header for p1 to steal
   through. A lock-based eager-acquire TM (dstm) blocks or aborts
   forever on the same plans. *)
let duel_workload =
  {
    Workload.nobjs = 1;
    procs =
      Array.init 2 (fun pid ->
          [ [ Workload.W (0, pid + 1) ]; [ Workload.R 0; Workload.W (0, 9) ] ]);
  }

let p1_commits o =
  List.length
    (List.filter
       (fun (t : History.txr) ->
         t.History.pid = 1 && t.History.status = History.Committed)
       o.Runner.history.History.txns)

let duel tm ~seed ~at =
  Runner.run tm ~retries:50
    ~faults:[ Fault.crash ~pid:0 ~at ]
    ~max_steps:20_000 ~livelock_window:64
    ~schedule:(Runner.Random_sched seed) duel_workload

let test_steal_from_corpse () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      for at = 0 to 15 do
        for seed = 1 to 3 do
          let o = duel (module T) ~seed ~at in
          (match Checker.strictly_serializable o.Runner.history with
          | Checker.Not_serializable r ->
              Alcotest.failf "%s: not serializable: %s" T.name r
          | _ -> ());
          Alcotest.(check bool)
            (Printf.sprintf "%s: survivor never blocks (crash at %d, seed %d)"
               T.name at seed)
            false o.Runner.out_of_steps;
          Alcotest.(check int)
            (Printf.sprintf "%s: p1 commits both (crash at %d, seed %d)"
               T.name at seed)
            2 (p1_commits o)
        done
      done)
    [ (module Ptm_tms.Ofree); (module Ptm_tms.Ofree.Aggressive);
      (module Ptm_tms.Ofree.Polite) ]

(* Greedy/Timestamp is the exception: a crashed owner that already drew
   an older stamp never commits and never ages past the survivor, so the
   younger survivor self-aborts through its whole retry budget. The sweep
   must find at least one such placement — the E18 finding that CM choice
   decides crash-tolerance even inside the obstruction-free family. *)
let test_timestamp_starves_on_elder_corpse () =
  let starved = ref 0 in
  for at = 0 to 15 do
    for seed = 1 to 3 do
      let o = duel (module Ptm_tms.Ofree.Timestamp) ~seed ~at in
      (match Checker.strictly_serializable o.Runner.history with
      | Checker.Not_serializable r ->
          Alcotest.failf "ofree+ts: not serializable: %s" r
      | _ -> ());
      if o.Runner.starved <> [] || p1_commits o < 2 then incr starved
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf
       "an elder corpse starves the younger survivor (%d/48 runs)" !starved)
    true (!starved > 0)

(* ------------------------------------------------------------------ *)
(* DPOR engine bit-identity, per CM variant                            *)
(* ------------------------------------------------------------------ *)

(* The E14-style two-process conflict fixture, one attempt each, explored
   exhaustively on both engines for each CM (the direct instance on
   Fibers, the step instance on Steps): the searches must be the same
   ([Explore.same_search]; the Steps search restores where the Fibers one
   replays) and violation-free, with every leaf's history passing both
   checkers. *)
let mk_conflict tm engine () =
  let m = Machine.create ~trace:Trace.Full ~engine ~nprocs:2 () in
  Runner.spawn m tm ~retries:0
    Workload.
      {
        nobjs = 2;
        procs = [| [ [ R 0; W (1, 10) ] ]; [ [ W (0, 20); R 1 ] ] |];
      };
  m

let explore_cm ~crashes tm engine =
  let final m =
    let entries = Trace.entries (Machine.trace m) in
    let sv = fst (Opacity_stream.check_entries entries) in
    let ov = Checker.opaque (History.of_entries entries) in
    match (ov, sv) with
    | Checker.Dont_know _, _ | _, Opacity_stream.Inconclusive _ -> true
    | Checker.Serializable _, Opacity_stream.Opaque -> true
    | _ -> false
  in
  Explore.run
    ~mk:(mk_conflict tm engine)
    ~final ~max_steps:80 ~max_paths:500_000 ~mode:Explore.Dpor ~crashes ()

let test_cm_engine_bit_identity () =
  List.iter
    (fun ((module T : Tm_intf.Both) as tm) ->
      List.iter
        (fun crashes ->
          let f = explore_cm ~crashes tm Machine.Fibers in
          let s = explore_cm ~crashes tm Machine.Steps in
          Alcotest.(check bool)
            (Printf.sprintf "%s (crashes %d): engines search the same tree"
               T.name crashes)
            true
            (Explore.same_search f s);
          Alcotest.(check int)
            (Printf.sprintf "%s (crashes %d): every leaf opacity-clean" T.name
               crashes)
            0 f.Explore.violations;
          Alcotest.(check bool)
            (Printf.sprintf "%s (crashes %d): explored something" T.name
               crashes)
            true (f.Explore.paths > 0))
        [ 0; 1 ])
    Ptm_tms.Registry.cms

(* ------------------------------------------------------------------ *)
(* QCheck: ofree vs dstm differential under random fault plans         *)
(* ------------------------------------------------------------------ *)

type duel_case = { d_seed : int; d_cm : Cm.kind; d_plan : Fault.spec list }

let duel_gen =
  QCheck2.Gen.(
    let* d_seed = int_range 0 1_000_000 in
    let* d_cm = oneofl Cm.all_kinds in
    let* d_plan =
      oneofl
        [
          [];
          [ Fault.crash ~pid:0 ~at:4 ];
          [ Fault.crash ~pid:2 ~at:2 ];
          [ Fault.stall ~pid:1 ~at:1 ~steps:25 ];
          [ Fault.crash ~pid:1 ~at:3; Fault.stall ~pid:0 ~at:5 ~steps:10 ];
          [ Fault.abort ~pid:0 ~op:0; Fault.abort ~pid:2 ~op:1 ];
        ]
    in
    return { d_seed; d_cm; d_plan })

let duel_print c =
  Printf.sprintf "{seed=%d cm=%s plan=[%s]}" c.d_seed (Cm.kind_name c.d_cm)
    (String.concat "; " (List.map Fault.to_string c.d_plan))

(* Run the same random workload + fault plan + schedule through the
   obstruction-free TM (under the drawn CM) and the lock-based dstm it
   contrasts with; on both runs the streaming monitor and the offline
   checker must agree, and neither may produce a falsified history. *)
let agree name (o : Runner.outcome) =
  (match Checker.strictly_serializable o.Runner.history with
  | Checker.Not_serializable r ->
      QCheck2.Test.fail_reportf "%s: not serializable: %s" name r
  | _ -> ());
  match (o.Runner.verdict, Checker.opaque o.Runner.history) with
  | Some Opacity_stream.Opaque, Checker.Serializable _ -> ()
  | Some Opacity_stream.Opaque, Checker.Dont_know _
  | Some (Opacity_stream.Inconclusive _), _ ->
      ()
  | Some (Opacity_stream.Violation _), Checker.Not_serializable _ -> ()
  | m, v ->
      QCheck2.Test.fail_reportf "%s: monitor and offline disagree (%a vs %a)"
        name
        Fmt.(option ~none:(any "not monitored") Opacity_stream.pp_verdict)
        m Checker.pp_verdict v

let qcheck_ofree_vs_dstm =
  QCheck2.Test.make ~count:120 ~name:"ofree vs dstm under random fault plans"
    ~print:duel_print duel_gen (fun c ->
      let w =
        Workload.random ~seed:c.d_seed ~nprocs:3 ~nobjs:2 ~txs_per_proc:2
          ~ops_per_tx:3 ()
      in
      let run tm =
        Runner.run tm ~retries:2 ~faults:c.d_plan ~max_steps:60_000
          ~monitor:true
          ~schedule:(Runner.Random_sched c.d_seed)
          w
      in
      let of_o = run (Ptm_tms.Registry.(direct (ofree_with_cm c.d_cm))) in
      let ds_o = run (module Ptm_tms.Dstm) in
      agree ("ofree+" ^ Cm.kind_name c.d_cm) of_o;
      agree "dstm" ds_o;
      (* determinism: the ofree run replays bit-identically *)
      let of_o' = run (Ptm_tms.Registry.(direct (ofree_with_cm c.d_cm))) in
      if of_o.Runner.history <> of_o'.Runner.history then
        QCheck2.Test.fail_reportf "ofree replay diverged";
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ofree"
    [
      ( "cm",
        [
          Alcotest.test_case "aggressive" `Quick test_cm_aggressive;
          Alcotest.test_case "polite" `Quick test_cm_polite;
          Alcotest.test_case "karma" `Quick test_cm_karma;
          Alcotest.test_case "timestamp" `Quick test_cm_timestamp;
        ] );
      ( "crash",
        [
          Alcotest.test_case "steal from the corpse" `Quick
            test_steal_from_corpse;
          Alcotest.test_case "timestamp starves on an elder corpse" `Quick
            test_timestamp_starves_on_elder_corpse;
        ] );
      ( "explore",
        [
          Alcotest.test_case "engines bit-identical per CM" `Quick
            test_cm_engine_bit_identity;
        ] );
      ("qcheck", [ of_q qcheck_ofree_vs_dstm ]);
    ]
