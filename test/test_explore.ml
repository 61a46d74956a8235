(* Bounded exhaustive schedule exploration: verify mutual exclusion of every
   lock and opacity of every TM over ALL interleavings of small
   configurations (not merely sampled schedules), and check that the
   explorer actually finds violations in deliberately broken algorithms. *)

open Ptm_machine
open Ptm_mutex
open Ptm_core

(* Two processes, one critical section each, occupancy checks inside. *)
let mk_mutex (module L : Mutex_intf.S) ?(nprocs = 2) ?trace () =
  Harness.explored (module L) ?trace ~nprocs ()

(* On maximal (uncut) paths both processes finished: the counter must be
   exactly 2 (no lost update). *)
let counter_is nprocs m =
  let mem = Machine.memory m in
  let rec find a =
    if a >= Memory.size mem then false
    else if Memory.name mem a = "c" then
      Value.to_int (Memory.peek mem a) = nprocs
    else find (a + 1)
  in
  find 0

let explore_lock ?(max_steps = 24) ?(max_paths = 1_000_000)
    (module L : Mutex_intf.S) () =
  let s =
    Explore.run
      ~mk:(mk_mutex (module L))
      ~final:(counter_is 2) ~max_steps ~max_paths ()
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: no violation in %d complete paths (%d cut)" L.name
       s.Explore.paths s.Explore.cut)
    0 s.Explore.violations;
  Alcotest.(check bool)
    (L.name ^ ": explored a nontrivial number of paths")
    true
    (s.Explore.paths > 100)

(* TM workload: T0 = read X0; write X1; commit — T1 = write X0; read X1;
   commit. All interleavings must yield opaque histories. *)
let mk_tm (module T : Tm_intf.S) () =
  let module R = Runner.Make (T) in
  let m = Machine.create ~nprocs:2 () in
  let ctx = R.init m ~nobjs:2 in
  Machine.spawn m 0 (fun () ->
      let tx = R.begin_tx ctx ~pid:0 in
      match R.read ctx tx 0 with
      | Error `Abort -> ()
      | Ok _ -> (
          match R.write ctx tx 1 10 with
          | Error `Abort -> ()
          | Ok () -> ignore (R.commit ctx tx)));
  Machine.spawn m 1 (fun () ->
      let tx = R.begin_tx ctx ~pid:1 in
      match R.write ctx tx 0 20 with
      | Error `Abort -> ()
      | Ok () -> (
          match R.read ctx tx 1 with
          | Error `Abort -> ()
          | Ok _ -> ignore (R.commit ctx tx)));
  m

let opaque_final m =
  let h = History.of_trace (Machine.trace m) in
  Checker.is_ok (Checker.opaque h)

let explore_tm ?(max_steps = 40) (module T : Tm_intf.S) () =
  let s =
    Explore.run ~mk:(mk_tm (module T)) ~final:opaque_final ~max_steps
      ~max_paths:1_000_000 ()
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: opaque on all %d complete paths" T.name
       s.Explore.paths)
    0 s.Explore.violations

(* ------------------------------------------------------------------ *)
(* Strong progressiveness, model-checked: two transactions conflicting *)
(* on a single t-object — in EVERY schedule at least one must commit.  *)
(* ------------------------------------------------------------------ *)

let mk_single_object (module T : Tm_intf.S) () =
  let module R = Runner.Make (T) in
  let m = Machine.create ~nprocs:2 () in
  let ctx = R.init m ~nobjs:1 in
  for pid = 0 to 1 do
    Machine.spawn m pid (fun () ->
        let tx = R.begin_tx ctx ~pid in
        match R.read ctx tx 0 with
        | Error `Abort -> ()
        | Ok _ -> (
            match R.write ctx tx 0 (pid + 1) with
            | Error `Abort -> ()
            | Ok () -> ignore (R.commit ctx tx)))
  done;
  m

let some_commit m =
  let h = History.of_trace (Machine.trace m) in
  List.exists (fun t -> t.History.status = History.Committed) h.History.txns

let explore_strongly_progressive (module T : Tm_intf.S) () =
  let s =
    Explore.run
      ~mk:(mk_single_object (module T))
      ~final:some_commit ~max_steps:40 ~max_paths:2_000_000 ()
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: some transaction commits on all %d paths" T.name
       s.Explore.paths)
    0 s.Explore.violations

(* Visread's upgrade deadlock is the canonical strong-progressiveness
   failure: both transactions read-lock, both try to upgrade, both abort.
   The explorer must find it — this is why visread claims
   strongly_progressive = false. *)
let test_visread_upgrade_all_abort () =
  let s =
    Explore.run
      ~mk:(mk_single_object (module Ptm_tms.Visread))
      ~final:some_commit ~max_steps:40 ~max_paths:2_000_000 ()
  in
  Alcotest.(check bool)
    "mutual-abort schedule found" true
    (s.Explore.violations > 0)

(* ------------------------------------------------------------------ *)
(* The explorer must detect violations.                                *)
(* ------------------------------------------------------------------ *)

module Broken_lock : Mutex_intf.S = struct
  let name = "broken"

  type t = unit

  let create _ ~nprocs:_ = ()
  let enter () ~pid:_ = ()
  let exit_cs () ~pid:_ = ()
end

(* A lock with a razor-thin race: test-then-set non-atomically. Random
   testing can miss it; exhaustive exploration cannot. *)
module Racy_lock : Mutex_intf.S = struct
  let name = "racy"

  type t = { flag : Memory.addr }

  let create machine ~nprocs:_ =
    { flag = Machine.alloc machine ~name:"racy.flag" (Value.Bool false) }

  let enter t ~pid:_ =
    let rec go () =
      if Proc.read_bool t.flag then go ()
      else Proc.write t.flag (Value.Bool true) (* non-atomic test-then-set *)
    in
    go ()

  let exit_cs t ~pid:_ = Proc.write t.flag (Value.Bool false)
end

let test_detects_broken () =
  let s = Explore.run ~mk:(mk_mutex (module Broken_lock)) ~max_steps:16 () in
  Alcotest.(check bool) "violations found" true (s.Explore.violations > 0);
  match s.Explore.first_violation with
  | None -> Alcotest.fail "expected a witness schedule"
  | Some w ->
      (* the witness replays to a crash *)
      let m = mk_mutex (module Broken_lock) () in
      List.iter (fun pid -> ignore (Machine.step m pid)) w;
      let crashed =
        List.exists
          (fun pid ->
            match Machine.status m pid with
            | Machine.Crashed _ -> true
            | _ -> false)
          [ 0; 1 ]
      in
      Alcotest.(check bool) "witness replays to the violation" true crashed

(* The breach is a typed exception, which [-noassert] cannot remove. *)
let test_violation_typed () =
  let s = Explore.run ~mk:(mk_mutex (module Broken_lock)) ~max_steps:16 () in
  let m = mk_mutex (module Broken_lock) () in
  List.iter
    (fun pid -> ignore (Machine.step m pid))
    (Option.get s.Explore.first_violation);
  let typed pid =
    match Machine.status m pid with
    | Machine.Crashed (Harness.Mutual_exclusion_violation _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "the crash is Mutual_exclusion_violation" true
    (typed 0 || typed 1)

let test_detects_racy () =
  let s = Explore.run ~mk:(mk_mutex (module Racy_lock)) ~max_steps:20 () in
  Alcotest.(check bool) "race found" true (s.Explore.violations > 0)

let test_deterministic () =
  let run () = Explore.run ~mk:(mk_mutex (module Tas)) ~max_steps:20 () in
  Alcotest.(check bool) "same stats" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Partial-order reduction, validated differentially: on every          *)
(* configuration the reduced search must reach the same verdict as the  *)
(* naive one while exploring no more (in practice: far fewer) paths.    *)
(* ------------------------------------------------------------------ *)

let differential ?(max_steps = 40) ?(max_paths = 2_000_000) ~name ~mk ~final
    () =
  let naive = Explore.run ~mk ~final ~max_steps ~max_paths () in
  let dpor =
    Explore.run ~mk ~final ~max_steps ~max_paths ~mode:Explore.Dpor ()
  in
  Alcotest.(check bool)
    (name ^ ": naive search completed")
    false naive.Explore.exhausted;
  Alcotest.(check bool)
    (name ^ ": reduced search completed")
    false dpor.Explore.exhausted;
  Alcotest.(check bool)
    (Printf.sprintf "%s: identical verdict (naive %d violations, dpor %d)"
       name naive.Explore.violations dpor.Explore.violations)
    (naive.Explore.violations > 0)
    (dpor.Explore.violations > 0);
  Alcotest.(check bool)
    (name ^ ": identical witness presence")
    (naive.Explore.first_violation <> None)
    (dpor.Explore.first_violation <> None);
  Alcotest.(check bool)
    (Printf.sprintf "%s: no extra paths (naive %d, dpor %d)" name
       naive.Explore.paths dpor.Explore.paths)
    true
    (dpor.Explore.paths <= naive.Explore.paths);
  (naive, dpor)

(* The DESIGN.md S3 validation story: the undolog ABA configuration's
   13,773 naive interleavings. The acceptance bar for the reduction is a
   >= 5x cut in explored paths with the identical verdict. *)
let test_undolog_aba_reduction () =
  let naive, dpor =
    differential ~name:"undolog-aba"
      ~mk:(mk_tm (module Ptm_tms.Undolog))
      ~final:opaque_final ()
  in
  Alcotest.(check int) "13,773 naive interleavings" 13_773 naive.Explore.paths;
  Alcotest.(check bool)
    (Printf.sprintf "at least 5x fewer paths (%d vs %d, ratio %.0fx)"
       naive.Explore.paths dpor.Explore.paths
       (Explore.reduction_ratio ~naive ~reduced:dpor))
    true
    (naive.Explore.paths >= 5 * dpor.Explore.paths)

let dpor_tm_cases =
  List.filter_map
    (fun (module T : Tm_intf.S) ->
      if T.name = "ostm" then None
      else
        Some
          (Alcotest.test_case T.name `Slow (fun () ->
               ignore
                 (differential ~name:T.name
                    ~mk:(mk_tm (module T))
                    ~final:opaque_final ()))))
    Ptm_tms.Registry.all

(* OSTM's helping protocol exceeds the naive budget at full depth, so the
   differential runs at a shallower bound where the naive search completes;
   the reduced search then covers the full-depth scenarios the naive one
   never could (the random sweep above remains the naive coverage). *)
let test_ostm_differential () =
  ignore
    (differential ~name:"ostm" ~max_steps:18
       ~mk:(mk_tm (module Ptm_tms.Ostm))
       ~final:opaque_final ())

let test_ostm_dpor_full_depth () =
  List.iter
    (fun (name, mk) ->
      let s =
        Explore.run ~mk ~final:opaque_final ~max_steps:40
          ~max_paths:2_000_000 ~mode:Explore.Dpor ()
      in
      Alcotest.(check bool) (name ^ ": search completed") false
        s.Explore.exhausted;
      Alcotest.(check int)
        (Printf.sprintf "%s: opaque on all %d complete paths" name
           s.Explore.paths)
        0 s.Explore.violations)
    [
      ("ostm two-object", mk_tm (module Ptm_tms.Ostm));
      ("ostm single-object", mk_single_object (module Ptm_tms.Ostm));
    ]

let dpor_single_object_cases =
  List.map
    (fun (module T : Tm_intf.S) ->
      Alcotest.test_case T.name `Slow (fun () ->
          ignore
            (differential ~name:T.name
               ~mk:(mk_single_object (module T))
               ~final:some_commit ())))
    [
      (module Ptm_tms.Oneshot : Tm_intf.S);
      (module Ptm_tms.Oneshot_llsc : Tm_intf.S);
      (module Ptm_tms.Sgl : Tm_intf.S);
      (module Ptm_tms.Dstm : Tm_intf.S);
      (* visread violates strong progressiveness: both searches must find
         the mutual-abort schedule (positive verdict on both sides). *)
      (module Ptm_tms.Visread : Tm_intf.S);
    ]

(* A deliberately lossy counter: three processes increment non-atomically
   (read, then write), so most interleavings lose an update. *)
let mk_lossy () =
  let m = Machine.create ~nprocs:3 () in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to 2 do
    Machine.spawn m pid (fun () ->
        let v = Proc.read_int c in
        Proc.write c (Value.Int (v + 1)))
  done;
  m

let test_differential_broken () =
  ignore
    (differential ~name:"broken" ~max_steps:16
       ~mk:(mk_mutex (module Broken_lock))
       ~final:(counter_is 2) ())

let test_differential_racy () =
  ignore
    (differential ~name:"racy" ~max_steps:20
       ~mk:(mk_mutex (module Racy_lock))
       ~final:(counter_is 2) ())

let test_differential_lossy () =
  ignore
    (differential ~name:"lossy" ~max_steps:12 ~mk:mk_lossy
       ~final:(counter_is 3) ())

(* Random small workloads: the agreement must hold beyond the hand-picked
   configurations. Two processes, 1-2 transactional ops each, over three
   TMs with very different conflict behaviour. *)
let prop_dpor_matches_naive =
  let open QCheck2 in
  let gen =
    Gen.(
      triple (int_bound 2)
        (list_size (1 -- 2) (pair (int_bound 1) bool))
        (list_size (1 -- 2) (pair (int_bound 1) bool)))
  in
  let print (t, a, b) =
    let ops l =
      String.concat ";"
        (List.map
           (fun (o, w) -> Printf.sprintf "%s%d" (if w then "W" else "R") o)
           l)
    in
    Printf.sprintf "tm=%d p0=[%s] p1=[%s]" t (ops a) (ops b)
  in
  Test.make ~count:12 ~name:"dpor agrees with naive on random workloads"
    ~print gen (fun (ti, ops0, ops1) ->
      let tms =
        [|
          (module Ptm_tms.Dstm : Tm_intf.S);
          (module Ptm_tms.Visread : Tm_intf.S);
          (module Ptm_tms.Tl2 : Tm_intf.S);
        |]
      in
      let (module T) = tms.(ti) in
      let mk () =
        let module R = Runner.Make (T) in
        let m = Machine.create ~nprocs:2 () in
        let ctx = R.init m ~nobjs:2 in
        let prog pid ops () =
          let tx = R.begin_tx ctx ~pid in
          let rec go = function
            | [] -> ignore (R.commit ctx tx)
            | (obj, write) :: rest ->
                let ok =
                  if write then
                    match R.write ctx tx obj (pid + 1) with
                    | Ok () -> true
                    | Error `Abort -> false
                  else
                    match R.read ctx tx obj with
                    | Ok _ -> true
                    | Error `Abort -> false
                in
                if ok then go rest
          in
          go ops
        in
        Machine.spawn m 0 (prog 0 ops0);
        Machine.spawn m 1 (prog 1 ops1);
        m
      in
      let naive = Explore.run ~mk ~final:opaque_final ~max_steps:40 () in
      let dpor =
        Explore.run ~mk ~final:opaque_final ~max_steps:40 ~mode:Explore.Dpor
          ()
      in
      (not naive.Explore.exhausted)
      && (not dpor.Explore.exhausted)
      && naive.Explore.violations > 0 = (dpor.Explore.violations > 0)
      && naive.Explore.first_violation <> None
         = (dpor.Explore.first_violation <> None)
      && dpor.Explore.paths <= naive.Explore.paths)

(* ------------------------------------------------------------------ *)
(* Budget safety: the path budget returns partial stats, never raises,  *)
(* and the bound is strict.                                             *)
(* ------------------------------------------------------------------ *)

(* TAS with two processes at max_steps 24 has exactly 4096 leaves
   (1938 complete + 2158 cut) — a fixture for the strict bound. *)
let test_budget_exact () =
  let mk = mk_mutex (module Tas) in
  let full = Explore.run ~mk ~max_steps:24 ~max_paths:4096 () in
  Alcotest.(check bool) "budget == leaves: complete" false
    full.Explore.exhausted;
  Alcotest.(check int) "complete paths" 1938 full.Explore.paths;
  Alcotest.(check int) "cut paths" 2158 full.Explore.cut

let test_budget_strict () =
  let mk = mk_mutex (module Tas) in
  let partial = Explore.run ~mk ~max_steps:24 ~max_paths:4095 () in
  Alcotest.(check bool) "one leaf short: exhausted" true
    partial.Explore.exhausted;
  Alcotest.(check int) "exactly max_paths leaves admitted, not one more"
    4095
    (partial.Explore.paths + partial.Explore.cut)

let test_budget_preserves_witness () =
  List.iter
    (fun mode ->
      let s =
        Explore.run ~mk:mk_lossy ~final:(counter_is 3) ~max_steps:12
          ~max_paths:20 ~mode ()
      in
      Alcotest.(check bool) "exhausted" true s.Explore.exhausted;
      Alcotest.(check bool) "violations found before the budget tripped"
        true
        (s.Explore.violations > 0);
      Alcotest.(check bool) "witness preserved" true
        (s.Explore.first_violation <> None))
    [ Explore.Naive; Explore.Dpor ]

(* ------------------------------------------------------------------ *)
(* Trace sinks and the bitmask encoding.                                *)
(* ------------------------------------------------------------------ *)

(* The sink is pure observation: every stat of the search — including the
   traversal bookkeeping (replays, steps) and the witness — is identical
   whether the explored machines record a full trace, a bounded ring, or
   nothing. The verdicts here are crash-based (occupancy assertions), so
   they need no trace. *)

let test_sink_invariance () =
  List.iter
    (fun ((module L : Mutex_intf.S), max_steps) ->
      List.iter
        (fun mode ->
          let run trace =
            Explore.run
              ~mk:(mk_mutex (module L) ~trace)
              ~max_steps ~mode ()
          in
          let full = run Trace.Full in
          let ring = run (Trace.Ring 4) in
          let off = run Trace.Off in
          Alcotest.(check bool)
            (L.name ^ ": ring sink changes nothing")
            true
            (full = ring);
          Alcotest.(check bool)
            (L.name ^ ": off sink changes nothing")
            true
            (full = off))
        [ Explore.Naive; Explore.Dpor ])
    [ ((module Tas), 24); ((module Ticket), 24) ]

(* Same invariance on random lossy programs: each process does a random
   sequence of read/increment rounds on one of two cells, so schedules
   both with and without violations are generated. *)
let prop_sinks_agree =
  let open QCheck2 in
  let gen = Gen.(list_size (2 -- 3) (list_size (1 -- 2) (int_bound 1))) in
  let print progs =
    String.concat " | "
      (List.map
         (fun p -> String.concat ";" (List.map string_of_int p))
         progs)
  in
  Test.make ~count:30 ~name:"trace sinks do not change exploration" ~print
    gen (fun progs ->
      let nprocs = List.length progs in
      let mk trace () =
        let m = Machine.create ~trace ~nprocs () in
        let cells =
          [| Machine.alloc m ~name:"a" (Value.Int 0);
             Machine.alloc m ~name:"b" (Value.Int 0) |]
        in
        List.iteri
          (fun pid prog ->
            Machine.spawn m pid (fun () ->
                List.iter
                  (fun obj ->
                    let c = cells.(obj) in
                    let v = Proc.read_int c in
                    Proc.write c (Value.Int (v + 1)))
                  prog))
          progs;
        m
      in
      List.for_all
        (fun mode ->
          let run trace =
            Explore.run ~mk:(mk trace) ~max_steps:14 ~max_paths:30_000 ~mode
              ()
          in
          let full = run Trace.Full in
          full = run Trace.Off && full = run (Trace.Ring 3))
        [ Explore.Naive; Explore.Dpor ])

(* The DPOR path/prune counts of the standard fixtures, pinned: the bitmask
   sleep/backtrack sets must reproduce the original assoc-list search
   node for node, not merely the verdicts. *)
let test_dpor_counts_pinned () =
  List.iter
    (fun (name, mk, max_steps, paths, cut, pruned) ->
      let s = Explore.run ~mk ~max_steps ~mode:Explore.Dpor () in
      Alcotest.(check (triple int int int))
        (name ^ ": pinned dpor stats")
        (paths, cut, pruned)
        (s.Explore.paths, s.Explore.cut, s.Explore.pruned))
    [
      ("tas", (fun () -> mk_mutex (module Tas) ()), 24, 17, 6, 0);
      ("ticket", (fun () -> mk_mutex (module Ticket) ()), 24, 13, 7, 1);
      ("undolog", mk_tm (module Ptm_tms.Undolog), 40, 24, 0, 25);
      ("dstm", mk_tm (module Ptm_tms.Dstm), 40, 19, 0, 21);
    ]

(* The bitmask encoding caps the machine at 62 processes; beyond that the
   explorer must refuse loudly, not overflow silently. (Machines themselves
   still take any nprocs — the Theorem 9 sweeps go to 64.) *)
let test_max_procs_rejected () =
  let mk () = Machine.create ~nprocs:63 () in
  Alcotest.check_raises "63 procs rejected"
    (Invalid_argument
       "Explore.run: 63 processes, but the bitmask sleep/backtrack sets \
        support at most 62")
    (fun () -> ignore (Explore.run ~mk ()));
  (* 62 is fine (nothing spawned: the search is a single empty path) *)
  let s = Explore.run ~mk:(fun () -> Machine.create ~nprocs:62 ()) () in
  Alcotest.(check int) "62 procs accepted" 1 s.Explore.paths

let test_replays_counted () =
  let s = Explore.run ~mk:(mk_mutex (module Tas)) ~max_steps:24 () in
  (* every leaf beyond the first along each node's in-place branch comes
     from a replayed sibling: 4096 leaves from one root = 4095 replays *)
  Alcotest.(check int) "one replay per non-first sibling" 4095
    s.Explore.replays;
  Alcotest.(check bool) "steps include replayed prefixes" true
    (s.Explore.steps > 4096)

(* ------------------------------------------------------------------ *)
(* Replay on pooled machines: a replaying search restarts a finished   *)
(* machine in place and re-executes the prefix. The reference below    *)
(* has no pool: it builds a fresh machine with [mk] at every node and   *)
(* re-steps the whole prefix on it.                                     *)
(* ------------------------------------------------------------------ *)

(* The machine [mk] builds, stepped along the schedule [w]. *)
let fresh_at ~mk w =
  let m = mk () in
  List.iter (fun pid -> ignore (Machine.step m pid : Machine.step_result)) w;
  m

let runnable m =
  List.filter (Machine.is_runnable m) (List.init (Machine.nprocs m) Fun.id)

(* The schedule [w] ends in a violation on a fresh machine: a crash, or
   no runnable process and a failed [final]. *)
let violates ~mk ~final w =
  let m = fresh_at ~mk w in
  Machine.any_crashed m || (runnable m = [] && not (final m))

(* (paths, cut, violations) *)
let fresh_search ~mk ~final ~max_steps =
  let paths = ref 0 and cut = ref 0 and violations = ref 0 in
  let rec go rev_w depth =
    let m = fresh_at ~mk (List.rev rev_w) in
    if Machine.any_crashed m then begin
      incr paths;
      incr violations
    end
    else
      match runnable m with
      | [] ->
          incr paths;
          if not (final m) then incr violations
      | live ->
          if depth >= max_steps then incr cut
          else List.iter (fun pid -> go (pid :: rev_w) (depth + 1)) live
  in
  go [] 0;
  (!paths, !cut, !violations)

(* The naive search on pooled machines finds what the fresh-machine
   reference finds, and its witness is a violating schedule. *)
let matches_fresh ~mk ?(final = fun _ -> true) ~max_steps () =
  let s = Explore.run ~mk ~final ~max_steps ~max_paths:max_int () in
  let paths, cut, violations = fresh_search ~mk ~final ~max_steps in
  (not s.Explore.exhausted)
  && (s.Explore.paths, s.Explore.cut, s.Explore.violations)
     = (paths, cut, violations)
  &&
  match s.Explore.first_violation with
  | None -> violations = 0
  | Some w -> violates ~mk ~final w

let test_pooled_mutexes () =
  List.iter
    (fun ((module L : Mutex_intf.S), max_steps) ->
      List.iter
        (fun trace ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s sink" L.name
               (match trace with Trace.Off -> "off" | _ -> "full"))
            true
            (matches_fresh
               ~mk:(mk_mutex (module L) ~trace)
               ~final:(counter_is 2) ~max_steps ()))
        [ Trace.Full; Trace.Off ])
    [
      ((module Tas : Mutex_intf.S), 20);
      ((module Ticket : Mutex_intf.S), 20);
      ((module Racy_lock : Mutex_intf.S), 16);
    ]

(* Each process runs read/increment rounds on one of two cells; [final]
   flags a lost update, so both violating and clean trees are generated. *)
let mk_rounds progs () =
  let nprocs = List.length progs in
  let m = Machine.create ~nprocs () in
  let cells =
    [| Machine.alloc m ~name:"a" (Value.Int 0);
       Machine.alloc m ~name:"b" (Value.Int 0) |]
  in
  List.iteri
    (fun pid prog ->
      Machine.spawn m pid (fun () ->
          List.iter
            (fun obj ->
              let c = cells.(obj) in
              let v = Proc.read_int c in
              Proc.write c (Value.Int (v + 1)))
            prog))
    progs;
  m

let no_lost_update progs m =
  let mem = Machine.memory m in
  let total obj = List.length (List.filter (( = ) obj) (List.concat progs)) in
  Value.to_int (Memory.peek mem 0) = total 0
  && Value.to_int (Memory.peek mem 1) = total 1

let prop_pooled_random =
  let open QCheck2 in
  let gen = Gen.(list_size (2 -- 3) (list_size (1 -- 2) (int_bound 1))) in
  let print progs =
    String.concat " | "
      (List.map
         (fun p -> String.concat ";" (List.map string_of_int p))
         progs)
  in
  Test.make ~count:25 ~name:"random programs match fresh machines" ~print gen
    (fun progs ->
      matches_fresh ~mk:(mk_rounds progs) ~final:(no_lost_update progs)
        ~max_steps:14 ())

(* An [mk] that steps the machine cannot be served by a restarted one, so
   every replay builds its machine with [mk]. *)
let test_pre_stepped_mk () =
  let progs = [ [ 0; 0 ]; [ 0 ] ] in
  let mk () =
    let m = mk_rounds progs () in
    ignore (Machine.step m 0 : Machine.step_result);
    m
  in
  let s = Explore.run ~mk ~final:(no_lost_update progs) ~max_steps:14 () in
  Alcotest.(check bool) "the lost update is found" true
    (s.Explore.violations > 0);
  Alcotest.(check bool) "matches fresh machines" true
    (matches_fresh ~mk ~final:(no_lost_update progs) ~max_steps:14 ())

let test_progress_callback () =
  let calls = ref 0 in
  let last = ref 0 in
  let s =
    Explore.run
      ~mk:(mk_mutex (module Tas))
      ~max_steps:24
      ~progress:(fun st ->
        incr calls;
        let leaves = st.Explore.paths + st.Explore.cut in
        Alcotest.(check bool) "monotone" true (leaves > !last);
        last := leaves)
      ~progress_every:1000 ()
  in
  Alcotest.(check int) "called once per 1000 leaves" 4 !calls;
  Alcotest.(check int) "all leaves admitted" 4096
    (s.Explore.paths + s.Explore.cut)

(* ------------------------------------------------------------------ *)
(* Parallel exploration across domains.                                 *)
(* ------------------------------------------------------------------ *)

let test_domains_naive_partition () =
  let mk = mk_mutex (module Ticket) in
  let s1 = Explore.run ~mk ~final:(counter_is 2) ~max_steps:24 () in
  let s2 =
    Explore.run ~mk ~final:(counter_is 2) ~max_steps:24 ~domains:2 ()
  in
  (* replays/steps are bookkeeping of the traversal itself, and the
     frontier split legitimately replays more prefixes than one DFS *)
  let scrub s = { s with Explore.replays = 0; steps = 0 } in
  Alcotest.(check bool) "two domains visit the same stats" true
    (scrub s1 = scrub s2)

let test_domains_dpor () =
  let mk = mk_mutex (module Ticket) ~nprocs:3 in
  let d1 =
    Explore.run ~mk ~final:(counter_is 3) ~max_steps:36
      ~mode:Explore.Dpor ()
  in
  let run3 () =
    Explore.run ~mk ~final:(counter_is 3) ~max_steps:36 ~mode:Explore.Dpor
      ~domains:3 ()
  in
  let a = run3 () and b = run3 () in
  Alcotest.(check bool) "parallel dpor is deterministic" true (a = b);
  Alcotest.(check bool) "search completed" false a.Explore.exhausted;
  Alcotest.(check bool) "same verdict as one domain"
    (d1.Explore.violations > 0)
    (a.Explore.violations > 0)

(* Three-process mutual exclusion is out of reach for the naive search at
   these depths; the reduction brings it into budget. *)
let test_three_process_mutex_dpor () =
  List.iter
    (fun ((module L : Mutex_intf.S), max_steps) ->
      let s =
        Explore.run
          ~mk:(mk_mutex (module L) ~nprocs:3)
          ~final:(counter_is 3) ~max_steps ~max_paths:2_000_000
          ~mode:Explore.Dpor ~domains:3 ()
      in
      Alcotest.(check bool) (L.name ^ ": search completed") false
        s.Explore.exhausted;
      Alcotest.(check int)
        (Printf.sprintf "%s: no violation in %d complete paths (%d cut)"
           L.name s.Explore.paths s.Explore.cut)
        0 s.Explore.violations)
    [ ((module Ticket), 36); ((module Mcs), 40) ]

let lock_cases =
  List.map
    (fun ((module L : Mutex_intf.S), max_steps, max_paths) ->
      Alcotest.test_case L.name `Slow
        (explore_lock ~max_steps ~max_paths (module L)))
    [
      ((module Tas), 24, 1_000_000);
      ((module Ttas), 24, 1_000_000);
      ((module Ticket), 24, 1_000_000);
      ((module Anderson), 24, 1_000_000);
      ((module Mcs), 24, 1_000_000);
      ((module Clh), 24, 1_000_000);
      ((module Tournament), 22, 1_000_000);
      ((module Yang_anderson), 18, 2_000_000);
      ((module Mutex_registry.Tm_oneshot), 20, 2_000_000);
      ((module Mutex_registry.Tm_llsc), 20, 2_000_000);
    ]

(* OSTM's commit protocol (descriptor set-up plus helping) makes even the
   tiny scenarios' interleaving spaces exceed the exhaustive path budget, so
   its schedule coverage is a deep random sweep instead: thousands of seeded
   schedules over both scenarios, every history checked for opacity. *)
let ostm_random_sweep () =
  for seed = 1 to 1500 do
    let m = mk_tm (module Ptm_tms.Ostm) () in
    Sched.random ~seed m;
    Machine.check_crashes m;
    if not (opaque_final m) then
      Alcotest.failf "ostm two-object scenario, seed %d: not opaque" seed;
    let m = mk_single_object (module Ptm_tms.Ostm) () in
    Sched.random ~seed m;
    Machine.check_crashes m;
    let h = History.of_trace (Machine.trace m) in
    if not (Checker.is_ok (Checker.opaque h)) then
      Alcotest.failf "ostm single-object scenario, seed %d: not opaque" seed;
    if not (some_commit m) then
      Alcotest.failf
        "ostm single-object scenario, seed %d: no transaction committed" seed
  done

(* Bakery's entry section is too long for exhaustive exploration within the
   path budget; deep random sweep instead (the standard mutex suite also
   covers it). *)
let bakery_random_sweep () =
  for seed = 1 to 1000 do
    List.iter
      (fun nprocs ->
        match
          Harness.run (module Bakery) ~nprocs ~rounds:2 ~schedule:(`Random seed)
            ()
        with
        | _ -> ()
        | exception Harness.Mutual_exclusion_violation msg ->
            Alcotest.failf "bakery seed %d n=%d: %s" seed nprocs msg
        | exception Sched.Out_of_steps ->
            Alcotest.failf "bakery seed %d n=%d: no progress" seed nprocs)
      [ 2; 3; 4 ]
  done

let tm_cases =
  List.map
    (fun (module T : Tm_intf.S) ->
      if T.name = "ostm" then
        Alcotest.test_case "ostm (random sweep)" `Slow ostm_random_sweep
      else Alcotest.test_case T.name `Slow (explore_tm (module T)))
    Ptm_tms.Registry.all

let strong_cases =
  List.map
    (fun (module T : Tm_intf.S) ->
      Alcotest.test_case T.name `Slow (explore_strongly_progressive (module T)))
    [
      (module Ptm_tms.Oneshot : Tm_intf.S);
      (module Ptm_tms.Oneshot_llsc : Tm_intf.S);
      (module Ptm_tms.Sgl : Tm_intf.S);
      (module Ptm_tms.Dstm : Tm_intf.S);
    ]
  @ [
      Alcotest.test_case "visread upgrade all-abort" `Quick
        test_visread_upgrade_all_abort;
    ]

let () =
  Alcotest.run "explore"
    [
      ( "mutex-all-schedules",
        lock_cases
        @ [ Alcotest.test_case "bakery (random sweep)" `Slow bakery_random_sweep ]
      );
      ("tm-opacity-all-schedules", tm_cases);
      ("strong-progressiveness-all-schedules", strong_cases);
      ( "detection",
        [
          Alcotest.test_case "broken lock found" `Quick test_detects_broken;
          Alcotest.test_case "breach is a typed exception" `Quick
            test_violation_typed;
          Alcotest.test_case "racy lock found" `Quick test_detects_racy;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "dpor-differential",
        [
          Alcotest.test_case "undolog aba >= 5x reduction" `Slow
            test_undolog_aba_reduction;
        ]
        @ dpor_tm_cases
        @ [
            Alcotest.test_case "ostm (shallow differential)" `Slow
              test_ostm_differential;
            Alcotest.test_case "ostm (dpor, full depth)" `Slow
              test_ostm_dpor_full_depth;
          ] );
      ( "dpor-single-object",
        dpor_single_object_cases
        @ [
            Alcotest.test_case "broken lock" `Quick test_differential_broken;
            Alcotest.test_case "racy lock" `Quick test_differential_racy;
            Alcotest.test_case "lossy counter" `Quick test_differential_lossy;
            QCheck_alcotest.to_alcotest prop_dpor_matches_naive;
          ] );
      ( "budget",
        [
          Alcotest.test_case "exact leaf count admitted" `Quick
            test_budget_exact;
          Alcotest.test_case "strict bound" `Quick test_budget_strict;
          Alcotest.test_case "witness preserved under budget" `Quick
            test_budget_preserves_witness;
          Alcotest.test_case "progress callback" `Quick
            test_progress_callback;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "sink invariance on mutex fixtures" `Quick
            test_sink_invariance;
          QCheck_alcotest.to_alcotest prop_sinks_agree;
          Alcotest.test_case "dpor counts pinned" `Quick
            test_dpor_counts_pinned;
          Alcotest.test_case "more than 62 procs rejected" `Quick
            test_max_procs_rejected;
          Alcotest.test_case "replays counted" `Quick test_replays_counted;
        ] );
      ( "replay",
        [
          Alcotest.test_case "mutexes match fresh machines" `Quick
            test_pooled_mutexes;
          QCheck_alcotest.to_alcotest prop_pooled_random;
          Alcotest.test_case "pre-stepped mk builds every machine" `Quick
            test_pre_stepped_mk;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "naive partition matches" `Quick
            test_domains_naive_partition;
          Alcotest.test_case "dpor across domains" `Quick test_domains_dpor;
          Alcotest.test_case "three-process mutexes" `Slow
            test_three_process_mutex_dpor;
        ] );
    ]
