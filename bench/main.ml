(* Benchmark harness: regenerates every quantitative artefact of the paper
   (see DESIGN.md section 3 for the experiment index):

     E1  Lemma 2 / Figure 1 outcomes per TM
     E2  Theorem 3(1): validation step complexity, adversarial, per TM
     E3  Theorem 3(2): distinct base objects in the last read + tryC
     E4  Theorem 9: RMR totals of mutexes incl. Algorithm 1, vs n log n
     E5  Tightness (Section 6): solo read-only cost, quadratic vs linear
     E6  Ablation: visible reads escape Theorem 3 by failing its premise
     E7  Ablation/Theorem 7: Algorithm 1 hand-off overhead is O(1)/passage
     E8  Extension: contention sweep + hotspot-skew ablation
     E9  Extension: RMRs of a fixed transactional workload per TM
     E10 Extension: schedule-space reduction of the DPOR explorer
     E11 Extension: explorer throughput (paths/s, steps/s) with the trace
         sink on/off, naive vs DPOR vs frontier-parallel; emits
         BENCH_explore.json
     E15 Extension: streaming opacity checker throughput (events/s) and
         resident state on a 10^6-event history; cells join
         BENCH_explore.json
     E17 Extension: heavy-traffic load engine — abort rate, throughput
         (committed tx/s), RMRs and wasted work per TM per mix, whole
         registry incl. the sharded family; emits BENCH_load.json
     E18 Extension: the price and the payoff of obstruction freedom —
         busy steps/RMRs per commit of the ofree family vs the lock-based
         TMs on the E17 mixes, crash-survival under load (lock-based
         latches, ofree steals through the corpse), and per-CM DPOR
         with a crash budget; load cells join BENCH_load.json, explore
         cells BENCH_explore.json

   plus Bechamel wall-clock micro-benchmarks of the simulator itself (one
   Test.make per experiment driver and per TM).

     dune exec bench/main.exe             # all experiment tables + timings
     dune exec bench/main.exe -- fast     # skip the Bechamel timing pass
     dune exec bench/main.exe -- e11      # only the explorer throughput pass
     dune exec bench/main.exe -- e11 quick  # regenerate BENCH_explore.json
     dune exec bench/main.exe -- e17 quick  # regenerate BENCH_load.json
     dune exec bench/main.exe -- gate     # exact check against both files

   The committed BENCH files hold the quick-budget cells, deterministic
   counters only (see [gate]). Only a run with [quick] rewrites them
   ([e11 quick], [e17 quick], or a full pass with [quick]); a full-budget
   run leaves them as committed. A word outside [accepted] exits 2 before
   a pass runs.
*)

open Ptm_core
open Ptm_bounds

let hr title =
  Fmt.pr "@.%s@.%s@.@." title (String.make (String.length title) '-')

(* ------------------------------------------------------------------ *)
(* E1: Lemma 2 / Figure 1                                              *)
(* ------------------------------------------------------------------ *)

let e1 () =
  hr "E1. Lemma 2 / Figure 1: read_phi(X_i) after pi^{i-1} . rho^i";
  Fmt.pr "%-10s" "tm";
  List.iter (fun i -> Fmt.pr " %9s" (Printf.sprintf "i=%d" i)) [ 1; 2; 4; 8; 16 ];
  Fmt.pr " %10s %18s@." "fig1a" "pi indist.?";
  List.iter
    (fun (module T : Tm_intf.S) ->
      Fmt.pr "%-10s" T.name;
      let cell_of o =
        match o with
        | Lemma2.Returned_new -> "nv"
        | Lemma2.Returned v -> Printf.sprintf "old(%d)" v
        | Lemma2.Aborted -> "abort"
        | Lemma2.Blocked -> "blocked"
      in
      let last = ref None in
      List.iter
        (fun i ->
          let r = Lemma2.run (module T) ~i in
          last := Some r;
          Fmt.pr " %9s" (cell_of r.Lemma2.outcome))
        [ 1; 2; 4; 8; 16 ];
      (match !last with
      | Some r ->
          Fmt.pr " %10s %18s@."
            (cell_of r.Lemma2.outcome_writer_first)
            (if r.Lemma2.outcome = Lemma2.Blocked then "-"
             else if r.Lemma2.prefix_indistinguishable then "yes"
             else "no")
      | None -> Fmt.pr "@."))
    Ptm_tms.Registry.all;
  Fmt.pr
    "@.expected: weak-DAP + invisible-read TMs cannot distinguish the two@.\
     orders of Figure 1 (pi indist. = yes) and must return nv; tl2 aborts@.\
     and mvtm serves the old version, both because their global clock makes@.\
     the orders distinguishable (not DAP); sgl blocks (the paused reader@.\
     holds the global lock). In the fig1a order every TM returns nv: the@.\
     writer precedes the reader in real time.@."

(* ------------------------------------------------------------------ *)
(* E2/E3: Theorem 3                                                    *)
(* ------------------------------------------------------------------ *)

let ms = [ 2; 4; 8; 16; 32 ]

let e2_e3 () =
  hr
    "E2. Theorem 3(1): adversarial read-validation steps (sum over i of \
     worst case)";
  Fmt.pr "%-10s" "tm";
  List.iter (fun m -> Fmt.pr " %10s" (Printf.sprintf "m=%d" m)) ms;
  Fmt.pr " %14s@." "verdict";
  let reports =
    List.map
      (fun (module T : Tm_intf.S) ->
        ( (module T : Tm_intf.S),
          List.map (fun m -> Theorem3.run (module T) ~m) ms ))
      Ptm_tms.Registry.all
  in
  List.iter
    (fun ((module T : Tm_intf.S), rs) ->
      Fmt.pr "%-10s" T.name;
      List.iter
        (fun r ->
          if r.Theorem3.blocked then Fmt.pr " %10s" "blocked"
          else Fmt.pr " %10d" r.Theorem3.total_steps_max)
        rs;
      let last = List.nth rs (List.length rs - 1) in
      Fmt.pr " %14s"
        (if last.Theorem3.blocked then "blocked"
         else if Theorem3.meets_step_bound last then "meets"
         else "escapes");
      (if not last.Theorem3.blocked then
         let points =
           List.map2
             (fun m r ->
               (float_of_int m, float_of_int r.Theorem3.total_steps_max))
             ms rs
         in
         Fmt.pr "  %a" Fit.pp (Fit.best ~candidates:Fit.shapes_m points));
      Fmt.pr "@.")
    reports;
  Fmt.pr "%-10s" "bound:";
  List.iter (fun m -> Fmt.pr " %10d" (m * (m - 1) / 2)) ms;
  Fmt.pr "@.";
  hr "E3. Theorem 3(2): distinct base objects in the m-th read + tryC";
  Fmt.pr "%-10s" "tm";
  List.iter (fun m -> Fmt.pr " %10s" (Printf.sprintf "m=%d" m)) ms;
  Fmt.pr " %14s@." "verdict";
  List.iter
    (fun ((module T : Tm_intf.S), rs) ->
      Fmt.pr "%-10s" T.name;
      List.iter
        (fun r ->
          if r.Theorem3.blocked then Fmt.pr " %10s" "blocked"
          else Fmt.pr " %10d" r.Theorem3.last_read_distinct)
        rs;
      let last = List.nth rs (List.length rs - 1) in
      Fmt.pr " %14s@."
        (if last.Theorem3.blocked then "blocked"
         else if Theorem3.meets_space_bound last then "meets"
         else "escapes"))
    reports;
  Fmt.pr "%-10s" "bound:";
  List.iter (fun m -> Fmt.pr " %10d" (m - 1)) ms;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* E4: Theorem 9 RMR sweep                                             *)
(* ------------------------------------------------------------------ *)

let e4 () =
  hr "E4. Theorem 9: total RMRs, n processes x 2 critical sections each";
  let ns = [ 2; 4; 8; 16; 32; 64 ] in
  let rows =
    Theorem9.sweep ~locks:Ptm_mutex.Mutex_registry.all ~ns ~rounds:2 ()
  in
  List.iter
    (fun model ->
      Fmt.pr "@.[%s]@." (Ptm_machine.Rmr.model_name model);
      Fmt.pr "%-22s" "lock";
      List.iter (fun n -> Fmt.pr " %8s" (Printf.sprintf "n=%d" n)) ns;
      Fmt.pr "@.";
      List.iter
        (fun (module L : Ptm_mutex.Mutex_intf.S) ->
          Fmt.pr "%-22s" L.name;
          List.iter
            (fun n ->
              let r =
                List.find
                  (fun r -> r.Theorem9.lock = L.name && r.Theorem9.n = n)
                  rows
              in
              Fmt.pr " %8d" (List.assoc model r.Theorem9.rmr))
            ns;
          Fmt.pr "@.")
        Ptm_mutex.Mutex_registry.all;
      Fmt.pr "%-22s" "(2n log2 n reference)";
      List.iter
        (fun n -> Fmt.pr " %8d" (int_of_float (2. *. Theorem9.nlogn n)))
        ns;
      Fmt.pr "@.")
    Ptm_machine.Rmr.all_models;
  Fmt.pr "@.best-fit growth per lock (CC write-back | DSM):@.";
  List.iter
    (fun (module L : Ptm_mutex.Mutex_intf.S) ->
      let series model =
        List.filter_map
          (fun r ->
            if r.Theorem9.lock = L.name then
              Some
                ( float_of_int r.Theorem9.n,
                  float_of_int (List.assoc model r.Theorem9.rmr) )
            else None)
          rows
      in
      let wb =
        Fit.best ~candidates:Fit.shapes_n
          (series Ptm_machine.Rmr.Cc_write_back)
      in
      let dsm =
        Fit.best ~candidates:Fit.shapes_n (series Ptm_machine.Rmr.Dsm)
      in
      Fmt.pr "  %-22s %a | %a@." L.name Fit.pp wb Fit.pp dsm)
    Ptm_mutex.Mutex_registry.all;
  Fmt.pr
    "@.expected shapes: mcs linear (O(1)/passage, via fetch-and-store —@.\
     outside the theorem's primitive class); tournament / yang-anderson@.\
     ~ n log n; tas/ttas superlinear; tm-mutex(oneshot-cas) = Algorithm 1@.\
     over a read/write/conditional TM, subject to the Omega(n log n) bound.@."

(* ------------------------------------------------------------------ *)
(* E5/E6: tightness + visible-reads ablation                           *)
(* ------------------------------------------------------------------ *)

let e5_e6 () =
  hr "E5. Tightness: solo read-only transaction cost (total steps incl. tryC)";
  let mss = [ 8; 16; 32; 64; 128 ] in
  Fmt.pr "%-10s" "tm";
  List.iter (fun m -> Fmt.pr " %8s" (Printf.sprintf "m=%d" m)) mss;
  Fmt.pr "@.";
  List.iter
    (fun (module T : Tm_intf.S) ->
      Fmt.pr "%-10s" T.name;
      let points = ref [] in
      List.iter
        (fun m ->
          let c = Tightness.read_only_cost (module T) ~m in
          points :=
            (float_of_int m, float_of_int c.Tightness.total) :: !points;
          Fmt.pr " %8d" c.Tightness.total)
        mss;
      Fmt.pr "  %a@." Fit.pp (Fit.best ~candidates:Fit.shapes_m !points))
    Ptm_tms.Registry.all;
  Fmt.pr "%-10s" "m(m-1)/2:";
  List.iter (fun m -> Fmt.pr " %8d" (m * (m - 1) / 2)) mss;
  Fmt.pr "@.";
  Fmt.pr
    "@.E6 (ablation): dstm/lazy-orec pay Theta(m^2) even uncontended — the@.\
     price of weak DAP + invisible reads; visread (visible reads), tl2@.\
     (global clock) and norec (global seqlock) are linear, each by giving@.\
     up one premise of Theorem 3.@."

(* ------------------------------------------------------------------ *)
(* E7: Theorem 7 overhead split                                        *)
(* ------------------------------------------------------------------ *)

let e7 () =
  hr "E7. Theorem 7: Algorithm 1 RMR overhead split (CC write-back)";
  Fmt.pr "%-18s %4s %10s %12s %18s@." "substrate TM" "n" "TM RMRs" "hand-off"
    "hand-off/passage";
  List.iter
    (fun (module T : Tm_intf.S) ->
      List.iter
        (fun n ->
          let o =
            Theorem9.tm_overhead (module T) ~n ~rounds:3
              ~model:Ptm_machine.Rmr.Cc_write_back ()
          in
          Fmt.pr "%-18s %4d %10d %12d %18.2f@." T.name n o.Theorem9.tm_rmr
            o.Theorem9.handoff_rmr o.Theorem9.handoff_per_passage)
        [ 2; 4; 8; 16; 32 ])
    [ (module Ptm_tms.Oneshot : Tm_intf.S); (module Ptm_tms.Sgl : Tm_intf.S) ];
  Fmt.pr
    "@.the hand-off column is the cost Algorithm 1 adds on top of the TM:@.\
     it stays constant per passage as n grows (Theorem 7's O(1) overhead),@.\
     so the TM itself must carry the Omega(n log n).@."

(* ------------------------------------------------------------------ *)
(* E8: contention sweep — abort rate and step cost per commit          *)
(* ------------------------------------------------------------------ *)

let e8 () =
  hr "E8. Contention sweep: aborted attempts / total steps per committed tx";
  let ns = [ 1; 2; 4; 8 ] in
  Fmt.pr "%-10s" "tm";
  List.iter (fun n -> Fmt.pr " %16s" (Printf.sprintf "n=%d" n)) ns;
  Fmt.pr "@.";
  List.iter
    (fun (module T : Tm_intf.S) ->
      Fmt.pr "%-10s" T.name;
      List.iter
        (fun n ->
          let w =
            Workload.random ~seed:1234 ~nprocs:n ~nobjs:2 ~txs_per_proc:4
              ~ops_per_tx:3 ~write_ratio:0.8 ()
          in
          let o =
            Runner.run (module T) ~retries:1000
              ~schedule:(Runner.Random_sched 77) w
          in
          let steps =
            let s = ref 0 in
            for pid = 0 to n - 1 do
              s := !s + Ptm_machine.Machine.steps_of o.Runner.machine pid
            done;
            !s
          in
          Fmt.pr " %16s"
            (Printf.sprintf "%da %.0fs/c" o.Runner.aborts
               (float_of_int steps /. float_of_int (max 1 o.Runner.commits))))
        ns;
      Fmt.pr "@.")
    Ptm_tms.Registry.all;
  Fmt.pr
    "@.(Na = aborted attempts, s/c = machine steps per committed@.\
     transaction.) progressiveness in practice: aborts appear only once@.\
     processes overlap (n >= 2); sgl never aborts but serializes; the@.\
     mvtm multi-version reader never aborts read-only transactions.@.";
  Fmt.pr "@.skew ablation (4 procs, 8 objects): uniform vs 90%% on 2 hot objects@.";
  Fmt.pr "%-10s %18s %18s@." "tm" "uniform" "hotspot";
  List.iter
    (fun (module T : Tm_intf.S) ->
      let run w =
        let o =
          Runner.run (module T) ~retries:1000
            ~schedule:(Runner.Random_sched 77) w
        in
        Printf.sprintf "%da %dc" o.Runner.aborts o.Runner.commits
      in
      let uniform =
        Workload.random ~seed:901 ~nprocs:4 ~nobjs:8 ~txs_per_proc:4
          ~ops_per_tx:3 ~write_ratio:0.6 ()
      in
      let hot =
        Workload.random ~seed:901 ~nprocs:4 ~nobjs:8 ~txs_per_proc:4
          ~ops_per_tx:3 ~write_ratio:0.6 ~hotspot:(2, 0.9) ()
      in
      Fmt.pr "%-10s %18s %18s@." T.name (run uniform) (run hot))
    Ptm_tms.Registry.all;
  Fmt.pr
    "@.skew concentrates conflicts: abort counts jump for the aborting TMs@.\
     while the blocking ones (sgl, norec writers) serialize instead.@."

(* ------------------------------------------------------------------ *)
(* E9: RMR cost of TM workloads under the three §5 models              *)
(* ------------------------------------------------------------------ *)

let e9 () =
  hr "E9. RMRs of a fixed transactional workload (4 procs x 4 txs, 8 objects)";
  Fmt.pr "%-10s %10s %10s %10s %8s@." "tm" "CC/WT" "CC/WB" "DSM" "steps";
  List.iter
    (fun (module T : Tm_intf.S) ->
      let w =
        Workload.random ~seed:2024 ~nprocs:4 ~nobjs:8 ~txs_per_proc:4
          ~ops_per_tx:4 ~write_ratio:0.5 ()
      in
      let o =
        Runner.run (module T) ~retries:1000 ~schedule:(Runner.Random_sched 5) w
      in
      let m = o.Runner.machine in
      let tr = Ptm_machine.Machine.trace m in
      let count model =
        (Ptm_machine.Rmr.count model ~nprocs:4 (Ptm_machine.Machine.memory m)
           tr)
          .Ptm_machine.Rmr.total
      in
      let steps =
        List.length (Ptm_machine.Trace.mem_events tr)
      in
      Fmt.pr "%-10s %10d %10d %10d %8d@." T.name
        (count Ptm_machine.Rmr.Cc_write_through)
        (count Ptm_machine.Rmr.Cc_write_back)
        (count Ptm_machine.Rmr.Dsm) steps)
    Ptm_tms.Registry.all;
  Fmt.pr
    "@.centralized metadata (tl2/norec/mvtm clocks, sgl lock) keeps step@.\
     counts low but concentrates RMRs on hot cells; the DAP TMs spread@.\
     traffic across per-object orecs.@."

(* A check between two cells that holds in every build, [-noassert]
   included: unless [ok], print both cells and exit 1. *)
let cells_agree ~pass ~what ok ca cb =
  if not ok then begin
    Fmt.pr "%s: %s:@.%s@.%s@." pass what ca cb;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E10: schedule-space reduction of the DPOR explorer                  *)
(* ------------------------------------------------------------------ *)

(* The explorer fixtures of E10, E11, E14, E18b and the perf gate. The TM
   one: T0 = read X0; write X1 — T1 = write X0; read X1, one attempt each,
   in the engine's program form (the TM's direct instance on Fibers, its
   step instance on Steps). *)
let conflict_w =
  Workload.
    { nobjs = 2; procs = [| [ [ R 0; W (1, 10) ] ]; [ [ W (0, 20); R 1 ] ] |] }

let bench_mk_tm ?engine tm trace () =
  let m = Ptm_machine.Machine.create ~trace ?engine ~nprocs:2 () in
  Runner.spawn m tm ~retries:0 conflict_w;
  m

(* Two processes, one critical section each. *)
let bench_mk_mutex lock trace () =
  Ptm_mutex.Harness.explored lock ~trace ~nprocs:2 ()

let e10 () =
  hr
    "E10. Partial-order reduction: naive vs DPOR explored paths (identical \
     verdicts)";
  let mk_tm tm = bench_mk_tm tm Ptm_machine.Trace.Full in
  let mk_mutex lock = bench_mk_mutex lock Ptm_machine.Trace.Full in
  let configs =
    [
      ("undolog 2tx", mk_tm (module Ptm_tms.Undolog), 40);
      ("dstm 2tx", mk_tm (module Ptm_tms.Dstm), 40);
      ("tl2 2tx", mk_tm (module Ptm_tms.Tl2), 40);
      ("norec 2tx", mk_tm (module Ptm_tms.Norec), 40);
      ("tas mutex", mk_mutex (module Ptm_mutex.Tas), 24);
      ("ticket mutex", mk_mutex (module Ptm_mutex.Ticket), 24);
    ]
  in
  Fmt.pr "%-14s %10s %10s %10s %10s@." "config" "naive" "dpor" "pruned"
    "reduction";
  List.iter
    (fun (name, mk, max_steps) ->
      let naive = Ptm_machine.Explore.run ~mk ~max_steps () in
      let reduced =
        Ptm_machine.Explore.run ~mk ~max_steps ~mode:Ptm_machine.Explore.Dpor
          ()
      in
      let cell mode s =
        Fmt.str "%s %s: %a" name mode Ptm_machine.Explore.pp_stats s
      in
      cells_agree ~pass:"e10" ~what:"the verdicts differ"
        (naive.Ptm_machine.Explore.violations > 0
        = (reduced.Ptm_machine.Explore.violations > 0))
        (cell "naive" naive) (cell "dpor" reduced);
      Fmt.pr "%-14s %10d %10d %10d %9.0fx@." name
        naive.Ptm_machine.Explore.paths reduced.Ptm_machine.Explore.paths
        reduced.Ptm_machine.Explore.pruned
        (Ptm_machine.Explore.reduction_ratio ~naive ~reduced))
    configs;
  Fmt.pr
    "@.each DPOR path stands for a Mazurkiewicz trace: interleavings that@.\
     only reorder independent (distinct-address or read-read) steps are@.\
     explored once. The verdicts agree with the naive search on every@.\
     config (checked above; the differential test suite checks more).@."

(* ------------------------------------------------------------------ *)
(* E11: explorer throughput — naive vs DPOR vs parallel, trace on/off  *)
(* ------------------------------------------------------------------ *)

(* OSTM's naive schedule space at depth 40 is far beyond the default
   budget, so it gets an explicit (deterministic) leaf cap: the naive
   rows report budgeted-search throughput, the DPOR rows complete. *)
let bench_configs ~quick =
  [
    ("undolog-aba", bench_mk_tm (module Ptm_tms.Undolog), 40, 4_000_000);
    ( "ostm",
      bench_mk_tm (module Ptm_tms.Ostm),
      40,
      if quick then 20_000 else 100_000 );
    ("tas-mutex", bench_mk_mutex (module Ptm_mutex.Tas), 24, 4_000_000);
    ("ticket-mutex", bench_mk_mutex (module Ptm_mutex.Ticket), 24, 4_000_000);
  ]

(* Adaptive repetition: re-run until [min_time] has elapsed so tiny DPOR
   searches are not timed at clock granularity. Returns the last stats and
   the best runs/sec over ~50 ms chunks: the whole-window mean is dragged
   by scheduler preemption and major-GC pauses on a shared box, while the
   best chunk tracks what the machine can actually sustain. *)
let timed_runs min_time run1 =
  let t0 = Unix.gettimeofday () in
  let s = ref (run1 ()) in
  let best = ref 0. in
  let chunk_t0 = ref t0 in
  let chunk_reps = ref 1 in
  let flush now =
    let dt = now -. !chunk_t0 in
    if dt > 0. && !chunk_reps > 0 then begin
      let r = float_of_int !chunk_reps /. dt in
      if r > !best then best := r
    end;
    chunk_t0 := now;
    chunk_reps := 0
  in
  while Unix.gettimeofday () -. t0 < min_time do
    s := run1 ();
    incr chunk_reps;
    let now = Unix.gettimeofday () in
    if now -. !chunk_t0 >= 0.05 then flush now
  done;
  flush (Unix.gettimeofday ());
  (* a single run longer than min_time never flushed mid-loop: its whole
     duration is the one chunk, so [best] is just its rate *)
  (!s, !best)

(* One BENCH_explore.json line: the cell's key and the search's
   deterministic counters. *)
let explore_cell ~config ~mode ~trace ~engine (s : Ptm_machine.Explore.stats)
    =
  let open Ptm_machine.Explore in
  Printf.sprintf
    "    {\"config\":%S,\"mode\":%S,\"trace\":%S,\"engine\":%S,\
     \"paths\":%d,\"cut\":%d,\"pruned\":%d,\"violations\":%d,\
     \"replays\":%d,\"steps\":%d,\"fault_branches\":%d}"
    config mode trace engine s.paths s.cut s.pruned s.violations s.replays
    s.steps s.fault_branches

(* Wall-clock throughput of the schedule explorer itself: complete paths,
   leaves (complete + cut) and machine steps per second, for the naive and
   DPOR searches, single-domain and frontier-parallel, with the trace sink
   on ([Full]) and off. The verdict and path counts must be identical
   across every cell ([cells_agree]) — the sink and the domain count must
   never change what the search finds. Results are printed as a table; each cell is returned
   as its BENCH_explore.json line. *)
let e11 ?(quick = false) () =
  hr
    "E11. Explorer throughput: paths/s and steps/s, naive vs DPOR vs \
     parallel, trace on/off";
  let configs = bench_configs ~quick in
  let modes =
    [ ("naive", Ptm_machine.Explore.Naive, 1);
      ("dpor", Ptm_machine.Explore.Dpor, 1);
      ("dpor-par2", Ptm_machine.Explore.Dpor, 2) ]
  in
  let sinks =
    [ ("full", Ptm_machine.Trace.Full); ("off", Ptm_machine.Trace.Off) ]
  in
  let min_time = if quick then 0.02 else 0.2 in
  let cells = ref [] in
  Fmt.pr "%-14s %-10s %-5s %10s %6s %12s %12s %12s@." "config" "mode" "trace"
    "paths" "cut" "paths/s" "leaves/s" "steps/s";
  List.iter
    (fun (cname, mk, max_steps, max_paths) ->
      (* the first cell, and the first cell of each mode *)
      let verdict_ref = ref None in
      let paths_ref = Hashtbl.create 4 in
      List.iter
        (fun (mname, mode, domains) ->
          List.iter
            (fun (sname, sink) ->
              let run1 () =
                Ptm_machine.Explore.run ~mk:(mk sink) ~max_steps ~max_paths
                  ~mode ~domains ()
              in
              let s, rps = timed_runs min_time run1 in
              let open Ptm_machine.Explore in
              let cell =
                explore_cell ~config:cname ~mode:mname ~trace:sname
                  ~engine:"fibers" s
              in
              (* the sink must never change the search: identical verdict
                 in every cell and identical path counts between the Full
                 and Off rows of each (mode, domains) pair (DPOR may count
                 fewer paths than naive, and the frontier split may explore
                 a superset of the single-domain persistent sets) *)
              (match !verdict_ref with
              | None -> verdict_ref := Some (s, cell)
              | Some (r, rcell) ->
                  cells_agree ~pass:"e11" ~what:"the verdicts differ"
                    ((r.violations > 0) = (s.violations > 0))
                    rcell cell);
              (match Hashtbl.find_opt paths_ref mname with
              | None -> Hashtbl.add paths_ref mname (s, cell)
              | Some (r, rcell) ->
                  cells_agree ~pass:"e11" ~what:"the path counts differ"
                    (r.paths = s.paths) rcell cell);
              let leaves = s.paths + s.cut in
              let per x = float_of_int x *. rps in
              Fmt.pr "%-14s %-10s %-5s %10d %6d %12.0f %12.0f %12.0f@." cname
                mname sname s.paths s.cut (per s.paths) (per leaves)
                (per s.steps);
              cells := cell :: !cells)
            sinks)
        modes)
    configs;
  Fmt.pr
    "@.trace=off machines allocate no trace entries and the explorer keeps@.\
     its schedules, sleep and backtrack sets in flat ints, so the remaining@.\
     per-step cost is the effect-handler fiber switch and the per-replay@.\
     machine construction.@.";
  List.rev !cells

(* ------------------------------------------------------------------ *)
(* E13: fault sweep — every TM x fault kind, commits under adversity   *)
(* ------------------------------------------------------------------ *)

(* Drive the same contended workload through every registry TM under each
   fault kind (none / stalled peer / crash-stopped peer / injected aborts),
   with exponential back-off retries and the livelock detector armed. Green
   means: histories stay strictly serializable under every fault; a stalled
   peer delays nobody's commits for good; injected aborts are absorbed by
   retries. A crash-stopped peer may permanently block lock-based TMs
   (reported as out-of-steps, not a failure — mutual exclusion is allowed
   to die with its holder, cf. the Algorithm 1 deadlock test). *)
let e13 () =
  hr "E13. Fault sweep: crash / stall / injected abort across the registry";
  let w =
    Workload.random ~seed:77 ~nprocs:3 ~nobjs:2 ~txs_per_proc:3 ~ops_per_tx:3
      ()
  in
  let total_txs = 9 in
  let scenarios =
    [
      ("none", []);
      ("stall:0@1+40", [ Ptm_machine.Fault.stall ~pid:0 ~at:1 ~steps:40 ]);
      ("crash:0@4", [ Ptm_machine.Fault.crash ~pid:0 ~at:4 ]);
      (* First-op aborts only: an abort injected mid-transaction abandons
         the TM handle with any eagerly acquired base objects still held
         (see runner.mli), which livelocks lock-based TMs by design. The
         op-index counter is monotone across retries and contention
         aborts, so only index 0 is guaranteed to be a transaction's
         first op — inject one such abort per pid. *)
      ( "abort x3",
        [
          Ptm_machine.Fault.abort ~pid:0 ~op:0;
          Ptm_machine.Fault.abort ~pid:1 ~op:0;
          Ptm_machine.Fault.abort ~pid:2 ~op:0;
        ] );
    ]
  in
  let failures = ref 0 in
  Fmt.pr "%-12s %-13s %7s %7s %9s %8s %4s %s@." "tm" "fault" "commits"
    "aborts" "injected" "starved" "oos" "verdict";
  List.iter
    (fun (module T : Tm_intf.S) ->
      List.iter
        (fun (label, faults) ->
          let o =
            Runner.run
              (module T)
              ~retries:300
              ~policy:(Runner.Backoff { base = 1; factor = 2; cap = 8 })
              ~faults ~livelock_window:500 ~max_steps:200_000
              ~schedule:(Runner.Random_sched 11) w
          in
          let verdict = Checker.strictly_serializable o.Runner.history in
          let crashed = List.exists (fun f -> f.Ptm_machine.Fault.kind = Ptm_machine.Fault.Crash) faults in
          (* Safety must hold in every cell. Liveness (all transactions
             commit, nobody starves) is asserted only when no process
             crashes: a crashed lock holder legitimately blocks peers in
             lock-based TMs — the livelock detector naming the starved
             pids is then the expected outcome, not a failure. *)
          let safe =
            match verdict with
            | Checker.Not_serializable _ -> false
            | Checker.Serializable _ | Checker.Dont_know _ -> true
          in
          let live =
            (not o.Runner.out_of_steps)
            && o.Runner.starved = []
            && o.Runner.commits = total_txs
          in
          let ok = safe && (crashed || live) in
          if not ok then incr failures;
          Fmt.pr "%-12s %-13s %7d %7d %9d %8s %4s %s@." T.name label
            o.Runner.commits o.Runner.aborts
            (List.length o.Runner.history.History.injected)
            (match o.Runner.starved with
            | [] -> "-"
            | ps -> String.concat "," (List.map string_of_int ps))
            (if o.Runner.out_of_steps then "yes" else "no")
            (if ok then "OK" else "FAIL"))
        scenarios)
    Ptm_tms.Registry.all;
  if !failures > 0 then begin
    Fmt.pr "@.E13: %d cell(s) FAILED@." !failures;
    exit 1
  end
  else
    Fmt.pr
      "@.E13: all cells green — strict serializability survives every fault \
       kind;@.stalls and injected aborts cost no commits (crash cells may \
       block lock-based TMs: 'oos').@."

(* ------------------------------------------------------------------ *)
(* E14: engine ablation — fiber switch vs direct step application      *)
(* ------------------------------------------------------------------ *)

(* The E11 TM workload on both engines: [Fibers] runs the direct instance
   in effect-handler coroutines (one stack switch per machine step),
   [Steps] drives the step instance by direct closure application with no
   fiber at all. The config names keep their baseline keys. *)
let e14_configs ~quick =
  [
    ("undolog-step", (module Ptm_tms.Undolog : Tm_intf.Both), 40, 4_000_000);
    ( "ostm-step",
      (module Ptm_tms.Ostm : Tm_intf.Both),
      40,
      if quick then 20_000 else 100_000 );
  ]

(* The engines must search the same tree: the Fibers search replays
   prefixes and the Steps search restores saved nodes, so only [replays]
   and [steps] may differ. *)
let engines_agree ~pass ~config ~mode sf ss =
  let cell engine s = explore_cell ~config ~mode ~trace:"off" ~engine s in
  cells_agree ~pass ~what:"the engines searched different trees"
    (Ptm_machine.Explore.same_search sf ss)
    (cell "fibers" sf) (cell "steps" ss)

(* Leaves/s of the same search on both engines (trace=off): the direct
   instance on Fibers, the step instance on Steps. The engines must find
   exactly the same schedule tree (checked by [engines_agree]); the
   per-step driving cost differs, and the Steps engine restores saved
   nodes where the Fibers engine replays. Returns BENCH_explore.json
   lines, [engine] distinguishing the rows. *)
let e14 ?(quick = false) () =
  hr
    "E14. Engine ablation: the direct instance on Fibers (effect handlers) \
     vs the step instance on Steps (direct application), trace=off";
  let configs = e14_configs ~quick in
  let modes =
    [ ("naive", Ptm_machine.Explore.Naive); ("dpor", Ptm_machine.Explore.Dpor) ]
  in
  let min_time = if quick then 0.02 else 0.2 in
  let cells = ref [] in
  let speedups = ref [] in
  Fmt.pr "%-14s %-6s %10s %6s %14s %14s %8s@." "config" "mode" "paths" "cut"
    "fibers leaves/s" "steps leaves/s" "speedup";
  List.iter
    (fun (cname, tm, max_steps, max_paths) ->
      List.iter
        (fun (mname, mode) ->
          let measure engine =
            timed_runs min_time (fun () ->
                Ptm_machine.Explore.run
                  ~mk:(bench_mk_tm ~engine tm Ptm_machine.Trace.Off)
                  ~max_steps ~max_paths ~mode ())
          in
          let sf, rps_f = measure Ptm_machine.Machine.Fibers in
          let ss, rps_s = measure Ptm_machine.Machine.Steps in
          engines_agree ~pass:"e14" ~config:cname ~mode:mname sf ss;
          let open Ptm_machine.Explore in
          let leaves = ss.paths + ss.cut in
          let lf = float_of_int leaves *. rps_f
          and ls = float_of_int leaves *. rps_s in
          speedups := ((cname, mname), ls /. lf) :: !speedups;
          Fmt.pr "%-14s %-6s %10d %6d %14.0f %14.0f %7.2fx@." cname mname
            ss.paths ss.cut lf ls (ls /. lf);
          let cell engine s =
            explore_cell ~config:cname ~mode:mname ~trace:"off" ~engine s
          in
          cells := cell "steps" ss :: cell "fibers" sf :: !cells)
        modes)
    configs;
  let sp k = try List.assoc k !speedups with Not_found -> 0. in
  Fmt.pr
    "@.Steps leaves/s over Fibers leaves/s on the DPOR cells: %.2fx (undolog)@.\
     and %.2fx (ostm). The ratio holds two gains: no fiber switch per step,@.\
     and no replay — the Steps search restores each node it saved, where the@.\
     Fibers search restarts a machine and replays the prefix per branch.@."
    (sp ("undolog-step", "dpor"))
    (sp ("ostm-step", "dpor"));
  List.rev !cells

(* ------------------------------------------------------------------ *)
(* E15: streaming opacity checker — events/s and resident state        *)
(* ------------------------------------------------------------------ *)

(* Feed the streaming TMS checker (Opacity_stream) a synthetic
   million-event valid history through [on_event] and report events/s plus
   the checker's peak resident state. Two shapes: [serial] (one pid,
   transactions back to back — the frontier stays a singleton) and
   [interleaved] (P pids in lockstep on disjoint objects — every round
   overlaps P commit windows, forcing the commit-order branching and
   frontier dedup machinery on every commit). Each shape's cell in
   BENCH_explore.json records the event count and the checker's peak
   frontier and resident state.

   After each history the checker's whole reachable heap must fit under
   [e15_ceiling_words], and the run exits 1 otherwise. Even the quick
   budget feeds >33k transactions, so any table that keeps an entry per
   transaction trips it; the live-window state of both shapes ends under
   1.3k words. *)
let e15_ceiling_words = 16_384

let e15 ?(quick = false) () =
  hr
    "E15. Streaming opacity: events/s and resident state on a 10^6-event \
     history";
  let total = if quick then 200_000 else 1_000_000 in
  let shapes = [ ("serial", 1); ("interleaved", 4) ] in
  let cells = ref [] in
  Fmt.pr "%-12s %10s %9s %12s %9s %9s %9s@." "shape" "events" "elapsed"
    "events/s" "frontier" "resident" "words";
  List.iter
    (fun (sname, nprocs) ->
      let run1 () =
        let chk = Opacity_stream.create () in
        let ev = ref 0 in
        let txof = Array.init nprocs (fun p -> p) in
        let ntx = ref nprocs in
        let phase = Array.make nprocs 0 in
        let value = Array.make nprocs 0 in
        (* stagger process starts by one event each, so commit windows
           overlap pairwise rather than all at once (all-at-once is the
           pathological shape the frontier cap exists for) *)
        let delay = Array.init nprocs (fun p -> nprocs - 1 - p) in
        (* round-robin one event per pid; each transaction writes its own
           object, reads it back, and commits (6 events) *)
        while !ev < total do
          for p = 0 to nprocs - 1 do
            if delay.(p) > 0 then delay.(p) <- delay.(p) - 1
            else if !ev < total then begin
              let tx = txof.(p) and obj = p in
              let e =
                match phase.(p) with
                | 0 ->
                    Opacity_stream.Inv
                      { pid = p; tx; op = History.Write (obj, value.(p)) }
                | 1 ->
                    Opacity_stream.Res
                      {
                        pid = p;
                        tx;
                        op = History.Write (obj, value.(p));
                        res = History.ROk;
                      }
                | 2 ->
                    Opacity_stream.Inv { pid = p; tx; op = History.Read obj }
                | 3 ->
                    Opacity_stream.Res
                      {
                        pid = p;
                        tx;
                        op = History.Read obj;
                        res = History.RVal value.(p);
                      }
                | 4 ->
                    Opacity_stream.Inv { pid = p; tx; op = History.Try_commit }
                | _ ->
                    Opacity_stream.Res
                      {
                        pid = p;
                        tx;
                        op = History.Try_commit;
                        res = History.RCommit;
                      }
              in
              Opacity_stream.on_event chk e;
              incr ev;
              phase.(p) <- phase.(p) + 1;
              if phase.(p) = 6 then begin
                phase.(p) <- 0;
                value.(p) <- value.(p) + 1;
                txof.(p) <- !ntx;
                incr ntx
              end
            end
          done
        done;
        chk
      in
      let t0 = Unix.gettimeofday () in
      let chk = run1 () in
      let dt = Unix.gettimeofday () -. t0 in
      (match Opacity_stream.verdict chk with
      | Opacity_stream.Opaque -> ()
      | v ->
          Fmt.epr "e15: valid history rejected: %a@."
            Opacity_stream.pp_verdict v;
          exit 1);
      let st = Opacity_stream.stats chk in
      let eps = float_of_int st.Opacity_stream.events /. dt in
      let words = Obj.reachable_words (Obj.repr chk) in
      Fmt.pr "%-12s %10d %8.2fs %12.0f %9d %9d %9d@." sname
        st.Opacity_stream.events dt eps st.Opacity_stream.max_frontier
        st.Opacity_stream.max_resident words;
      if words > e15_ceiling_words then begin
        Fmt.epr
          "e15: %s: the checker holds %d words after %d events (ceiling %d) \
           — its state grows with the history@."
          sname words st.Opacity_stream.events e15_ceiling_words;
        exit 1
      end;
      cells :=
        Printf.sprintf
          "    {\"config\":\"e15-opacity\",\"mode\":%S,\"events\":%d,\
           \"max_frontier\":%d,\"max_resident\":%d}"
          sname st.Opacity_stream.events st.Opacity_stream.max_frontier
          st.Opacity_stream.max_resident
        :: !cells)
    shapes;
  Fmt.pr
    "@.the monitor's per-event cost is frontier size x validity-interval@.\
     work; watermark pruning and the coalesced seen-id set keep its state@.\
     (words: everything the checker reaches, ceiling %d) bounded by the@.\
     live transaction window, not by history length.@."
    e15_ceiling_words;
  List.rev !cells

(* ------------------------------------------------------------------ *)
(* E17: heavy-traffic load — the Load engine over the whole registry   *)
(* ------------------------------------------------------------------ *)

(* Serve a closed-loop saturating client population against every registry
   TM (including the sharded family) under three mixes, with online RMR
   accounting and the streaming opacity monitor sampling a quarter of the
   clients. The table prints committed transactions per processor second;
   the cell records the abort/wasted-work/RMR profile. A monitor verdict of
   inconclusive (checker frontier cap: the sharded TMs' long commit windows
   accumulate order-ambiguous overlapping commits) is reported, not failed;
   a violation fails the experiment. *)
let e17_mixes =
  [
    ( "read-mostly",
      {
        Load.dist = Workload.Uniform;
        hotspot = None;
        write_ratio = 0.2;
        ops_min = 2;
        ops_max = 6;
      } );
    ( "zipf-write",
      {
        Load.dist = Workload.Zipf 0.9;
        hotspot = None;
        write_ratio = 0.8;
        ops_min = 2;
        ops_max = 6;
      } );
    ( "hot-key",
      {
        Load.dist = Workload.Uniform;
        hotspot = Some (4, 0.5);
        write_ratio = 0.5;
        ops_min = 2;
        ops_max = 6;
      } );
  ]

(* The monitor column of the load tables and cells. *)
let monitor_label (r : Load.result) =
  match r.Load.verdict with
  | None -> "off"
  | Some Opacity_stream.Opaque -> "opaque"
  | Some (Opacity_stream.Violation _) -> "VIOLATION"
  | Some (Opacity_stream.Inconclusive _) -> "inconcl."

(* Report a sampled opacity violation on stderr; true when there was one. *)
let violated exp mode (r : Load.result) =
  match r.Load.verdict with
  | Some (Opacity_stream.Violation v) ->
      Fmt.epr "%s: %s/%s OPACITY VIOLATION %a@." exp r.Load.tm mode
        Opacity_stream.pp_violation v;
      true
  | _ -> false

(* Busy steps (all steps but idle ticks: no client due, or a back-off
   before a retry) per committed transaction; a run with zero commits
   costs infinity honestly. *)
let busy_per_commit (r : Load.result) =
  if r.Load.committed = 0 then infinity
  else
    float_of_int (r.Load.steps - r.Load.idle)
    /. float_of_int r.Load.committed

(* One BENCH_load.json line, shared by the E17 and E18 load cells: the
   cell's key (TM, mix) and the run's deterministic counters. *)
let load_cell mode (r : Load.result) =
  let rmr m = try List.assoc m r.Load.rmr with Not_found -> 0 in
  Printf.sprintf
    "    {\"config\":%S,\"mode\":%S,\"committed\":%d,\"aborted\":%d,\
     \"failed\":%d,\"unstarted\":%d,\"steps\":%d,\"wasted\":%d,\"idle\":%d,\
     \"rmr_ccwt\":%d,\"rmr_ccwb\":%d,\"rmr_dsm\":%d,\"starved\":[%s],\
     \"monitor\":%S}"
    r.Load.tm mode r.Load.committed r.Load.aborted r.Load.failed
    r.Load.unstarted r.Load.steps r.Load.wasted r.Load.idle (rmr "CC/WT")
    (rmr "CC/WB") (rmr "DSM")
    (String.concat "," (List.map string_of_int r.Load.starved))
    (monitor_label r)

let e17 ?(quick = false) () =
  hr
    "E17. Heavy-traffic load: abort rate / throughput / RMR / wasted work \
     per TM per mix";
  let clients = if quick then 32 else 256 in
  let txs = if quick then 10 else 101 in
  let tms = Ptm_tms.Registry.all @ Ptm_tms.Registry.sharded in
  let cells = ref [] in
  let violations = ref 0 in
  let total = ref 0 in
  Fmt.pr "%-12s %-12s %9s %7s %7s %10s %9s %10s %8s %-8s@." "tm" "mix"
    "committed" "abrt%" "failed" "steps" "busy/cmt" "wasted" "tx/s"
    "monitor";
  List.iter
    (fun (module T : Tm_intf.S) ->
      List.iter
        (fun (mname, mix) ->
          let cfg =
            {
              Load.default_config with
              Load.clients;
              nprocs = 4;
              nobjs = 64;
              txs_per_client = txs;
              mix;
              seed = 17;
              sample = 0.25;
              rmr_models = Ptm_machine.Rmr.all_models;
            }
          in
          let r = Load.run (module T) cfg in
          total := !total + r.Load.committed;
          if violated "e17" mname r then incr violations;
          Fmt.pr "%-12s %-12s %9d %6.1f%% %7d %10d %9.1f %10d %8.0f %-8s@."
            T.name mname r.Load.committed
            (100. *. Load.abort_rate r)
            r.Load.failed r.Load.steps (busy_per_commit r) r.Load.wasted
            (Load.throughput r) (monitor_label r);
          cells := load_cell mname r :: !cells)
        e17_mixes)
    tms;
  Fmt.pr
    "@.%d transactions committed across %d cells; monitor sampled 25%% of \
     clients.@.(tx/s = committed transactions per processor second; \
     busy/cmt = steps less@.idle ticks and back-off waits, per commit; the \
     sharded TMs pay@.cross-shard coordination in steps and RMRs; \
     'inconcl.' = checker frontier cap@.hit: undecided, never wrong.)@."
    !total (List.length !cells);
  if !violations > 0 then begin
    Fmt.pr "e17: %d opacity violation(s)@." !violations;
    exit 1
  end;
  List.rev !cells

(* ------------------------------------------------------------------ *)
(* E18: the price and the payoff of obstruction freedom                 *)
(* ------------------------------------------------------------------ *)

(* Two measured claims, one experiment:

   - {e the price}: on contended mixes the obstruction-free TM pays for
     its lock freedom in work — more steps and RMRs per committed
     transaction than the lock-based progressive TMs on the same load
     (stolen ownership turns one process's progress into another's
     wasted re-execution, and every acquisition is a CAS on a shared
     header where dstm's reader pays a plain read);
   - {e the payoff}: crash-stop a process mid-load and the lock-based
     TMs can latch livelock or burn the slot budget on the corpse's
     locks, while every ofree survivor steals through the corpse and
     finishes its work.

   The load cells ride the E17 machinery; [mode] is prefixed "e18-" so
   the keys never collide with E17's rows for the same TM. The explore
   cells run the E14 conflict fixture under a crash budget for each
   contention manager, on both engines, asserted bit-identical. *)

let e18_ofree_tms = Ptm_tms.Registry.ofree_cms

let e18_contrast_tms : Tm_intf.tm list =
  [ (module Ptm_tms.Dstm); (module Ptm_tms.Tl2) ]

let e18_load ?(quick = false) () =
  hr
    "E18. Obstruction freedom under load: steps/RMR per commit vs the \
     lock-based TMs, and crash survival";
  let clients = if quick then 32 else 128 in
  let txs = if quick then 10 else 50 in
  let cells = ref [] in
  let violations = ref 0 in
  (* steps per committed transaction, waits included; the price is
     judged on busy steps per commit ([busy_per_commit]) *)
  let spc (r : Load.result) =
    if r.Load.committed = 0 then infinity
    else float_of_int r.Load.steps /. float_of_int r.Load.committed
  in
  let rmrpc (r : Load.result) =
    let total = List.fold_left (fun a (_, n) -> a + n) 0 r.Load.rmr in
    if r.Load.committed = 0 then infinity
    else float_of_int total /. float_of_int r.Load.committed
  in
  let cell mname (r : Load.result) =
    if violated "e18" mname r then incr violations;
    load_cell ("e18-" ^ mname) r
  in
  (* -- claim 1: the price, on the E17 mixes ------------------------- *)
  Fmt.pr "%-12s %-12s %9s %7s %10s %9s %11s %10s %-8s@." "tm" "mix"
    "committed" "abrt%" "steps/cmt" "busy/cmt" "rmr/cmt" "tx/s" "monitor";
  let contended = ref [] in
  List.iter
    (fun (module T : Tm_intf.S) ->
      List.iter
        (fun (mname, mix) ->
          let cfg =
            {
              Load.default_config with
              Load.clients;
              nprocs = 4;
              nobjs = 64;
              txs_per_client = txs;
              mix;
              seed = 18;
              sample = 0.25;
              rmr_models = Ptm_machine.Rmr.all_models;
            }
          in
          let r = Load.run (module T) cfg in
          Fmt.pr "%-12s %-12s %9d %6.1f%% %10.1f %9.1f %11.1f %10.0f %-8s@."
            T.name mname r.Load.committed
            (100. *. Load.abort_rate r)
            (spc r) (busy_per_commit r) (rmrpc r) (Load.throughput r)
            (monitor_label r);
          if mname <> "read-mostly" then
            contended :=
              ((T.name, mname), (busy_per_commit r, rmrpc r)) :: !contended;
          cells := cell mname r :: !cells)
        e17_mixes)
    (e18_ofree_tms @ e18_contrast_tms);
  (* the price must be visible: on every contended mix, the default
     ofree pays more busy steps and RMRs per commit than each lock-based
     contrast TM (busy: the back-off waits before retries are idle
     ticks, not work) *)
  List.iter
    (fun (mname, _) ->
      let get tm = List.assoc (tm, mname) !contended in
      let of_bpc, of_rmr = get "ofree" in
      List.iter
        (fun (module T : Tm_intf.S) ->
          let c_bpc, c_rmr = get T.name in
          if of_bpc <= c_bpc || of_rmr <= c_rmr then begin
            Fmt.pr
              "e18: expected ofree to out-pay %s on %s \
               (busy/cmt %.1f vs %.1f, rmr/cmt %.1f vs %.1f)@."
              T.name mname of_bpc c_bpc of_rmr c_rmr;
            exit 1
          end)
        e18_contrast_tms)
    (List.filter (fun (m, _) -> m <> "read-mostly") e17_mixes);
  (* -- claim 2: the payoff, crash-stop under load ------------------- *)
  let crash_clients = if quick then 16 else 32 in
  let crash_txs = if quick then 8 else 16 in
  (* the detector counts consecutive aborted attempts across ALL clients,
     so a fair window scales with concurrency: a latch must mean nobody
     can commit (the corpse's doing), not that many clients briefly
     collided. dstm's survivors abort unboundedly on the corpse's orec,
     so any finite window still catches the lock-based TMs. *)
  let crash_window = 4 * crash_clients in
  (* What a crash catches depends on what p1 holds at that slot, so the
     payoff is swept over where p1 stops; the slot-30 runs are the
     baseline's cells. *)
  let crash_slots = [ 10; 20; 30; 40; 50; 60; 80; 100 ] in
  let cell_slot = 30 in
  let crash_cfg at =
    {
      Load.default_config with
      Load.clients = crash_clients;
      nprocs = 4;
      nobjs = 16;
      txs_per_client = crash_txs;
      mix =
        {
          Load.dist = Workload.Uniform;
          hotspot = None;
          write_ratio = 0.9;
          ops_min = 2;
          ops_max = 6;
        };
      seed = 18;
      retries = 32;
      faults = [ Ptm_machine.Fault.crash ~pid:1 ~at ];
      livelock_window = Some crash_window;
      max_slots = 2_000_000;
      sample = 0.25;
      rmr_models = Ptm_machine.Rmr.all_models;
    }
  in
  let latched (r : Load.result) = r.Load.starved <> [] || r.Load.out_of_slots in
  let sweep =
    List.map
      (fun (module T : Tm_intf.S) ->
        ( T.name,
          List.map
            (fun at ->
              let r = Load.run (module T) (crash_cfg at) in
              if violated "e18" (Printf.sprintf "crash@%d" at) r then
                incr violations;
              (at, r))
            crash_slots ))
      (e18_ofree_tms @ e18_contrast_tms
      @ [ Option.get (Ptm_tms.Registry.by_name "sgl.x4") ])
  in
  Fmt.pr
    "@.crash cell: p1 crash-stops at its %dth slot, livelock window %d, \
     write-heavy mix@."
    cell_slot crash_window;
  Fmt.pr "%-12s %9s %7s %7s %10s %9s  %s@." "tm" "committed" "failed"
    "unstart" "steps" "busy/cmt" "outcome";
  List.iter
    (fun (name, runs) ->
      let r = List.assoc cell_slot runs in
      Fmt.pr "%-12s %9d %7d %7d %10d %9.1f  %s@." name r.Load.committed
        r.Load.failed r.Load.unstarted r.Load.steps (busy_per_commit r)
        (if r.Load.starved <> [] then
           Printf.sprintf "LIVELOCK starved p[%s]"
             (String.concat ";" (List.map string_of_int r.Load.starved))
         else if r.Load.out_of_slots then "OUT OF SLOTS"
         else "completed");
      cells := load_cell "e18-crash" r :: !cells)
    sweep;
  Fmt.pr
    "@.crash sweep: committed of %d, by the slot p1 crash-stops at \
     (* latched)@."
    (crash_clients * crash_txs);
  Fmt.pr "%-12s%s@." "tm"
    (String.concat "" (List.map (Printf.sprintf " %6d") crash_slots));
  List.iter
    (fun (name, runs) ->
      Fmt.pr "%-12s%s@." name
        (String.concat ""
           (List.map
              (fun (_, r) ->
                Printf.sprintf " %5d%s" r.Load.committed
                  (if latched r then "*" else " "))
              runs)))
    sweep;
  (* The default (Karma) variant must commit through the corpse wherever
     it lies: no latch, and every survivor's transaction gets through —
     waiting accrues karma, so steal wars and corpse conflicts both
     resolve. The other managers are reported, not asserted: Aggressive
     can livelock on mutual steals and Greedy/Timestamp starves behind an
     elder corpse — CM choice deciding liveness is the finding, not a
     bench failure. Survivors own 3/4 of the offered load; committing at
     least half the total means the run kept flowing through the corpse
     (retry-exhausted stragglers under the write-heavy mix are reported
     above, not hidden). *)
  List.iter
    (fun (at, r) ->
      if latched r then begin
        Fmt.pr "e18: ofree latched under a crash at slot %d — obstruction \
                freedom broken@." at;
        exit 1
      end;
      if 2 * r.Load.committed < crash_clients * crash_txs then begin
        Fmt.pr "e18: ofree committed only %d of %d under a crash at slot %d@."
          r.Load.committed (crash_clients * crash_txs) at;
        exit 1
      end)
    (List.assoc "ofree" sweep);
  let is_ofree name =
    List.exists (fun (module O : Tm_intf.S) -> O.name = name) e18_ofree_tms
  in
  let lock_latched =
    List.fold_left
      (fun n (name, runs) ->
        if is_ofree name then n
        else n + List.length (List.filter (fun (_, r) -> latched r) runs))
      0 sweep
  in
  if lock_latched = 0 then begin
    Fmt.pr
      "e18: no lock-based TM latched under a crash at any slot — the \
       contrast cell lost its contrast@.";
    exit 1
  end;
  Fmt.pr
    "@.The price: on the contended mixes ofree pays more busy steps and \
     RMRs per commit than@.the lock-based TMs (stolen ownership \
     re-executes the victim's work; every@.acquisition is a CAS). The \
     payoff: under crash-stop %d lock-based run(s) of the@.sweep latched \
     (livelock or out of slots) while ofree under Karma kept@.committing \
     the survivors' load wherever the crash fell.@.CM choice decides liveness \
     even inside the obstruction-free family: Aggressive@.can livelock on \
     mutual steals and Greedy/Timestamp starves behind a corpse@.holding \
     an elder stamp; Karma's wait-accrual ages every waiter past both.@."
    lock_latched;
  if !violations > 0 then begin
    Fmt.pr "e18: %d opacity violation(s)@." !violations;
    exit 1
  end;
  List.rev !cells

(* DPOR of the ofree conflict fixture under a crash budget, per contention
   manager, on both engines (the direct instance on Fibers, the step
   instance on Steps) — the crash-resilience study's state-space side:
   every reachable leaf (including crash-truncated ones) must be
   opacity-clean, and the engines must search the same tree. Cells join
   BENCH_explore.json in the E11 format. *)
let e18_explore ?(quick = false) () =
  hr
    "E18b. Obstruction freedom explored: DPOR with a crash budget, per \
     contention manager, fibers vs steps";
  let min_time = if quick then 0.02 else 0.2 in
  let cells = ref [] in
  Fmt.pr "%-16s %10s %6s %6s %14s %14s %8s@." "config" "paths" "cut" "faults"
    "fibers leaves/s" "steps leaves/s" "speedup";
  List.iter
    (fun ((module T : Tm_intf.Both) as tm) ->
      let measure engine =
        timed_runs min_time (fun () ->
            Ptm_machine.Explore.run
              ~mk:(bench_mk_tm ~engine tm Ptm_machine.Trace.Off)
              ~max_steps:60 ~max_paths:4_000_000 ~mode:Ptm_machine.Explore.Dpor
              ~crashes:1 ())
      in
      let sf, rps_f = measure Ptm_machine.Machine.Fibers in
      let ss, rps_s = measure Ptm_machine.Machine.Steps in
      let cname = T.name ^ "-step" in
      engines_agree ~pass:"e18b" ~config:cname ~mode:"dpor-crash1" sf ss;
      let open Ptm_machine.Explore in
      if ss.violations > 0 then begin
        Fmt.pr "e18b: %s: %d violation(s) under the crash budget@." T.name
          ss.violations;
        exit 1
      end;
      let leaves = ss.paths + ss.cut in
      let lf = float_of_int leaves *. rps_f
      and ls = float_of_int leaves *. rps_s in
      Fmt.pr "%-16s %10d %6d %6d %14.0f %14.0f %7.2fx@." cname ss.paths ss.cut
        ss.fault_branches lf ls (ls /. lf);
      let cell engine s =
        explore_cell ~config:cname ~mode:"dpor-crash1" ~trace:"off" ~engine s
      in
      cells := cell "steps" ss :: cell "fibers" sf :: !cells)
    Ptm_tms.Registry.cms;
  Fmt.pr
    "@.Every leaf of every CM's crash-budget search is reachable and \
     violation-free,@.and the engines search the same tree.@.";
  List.rev !cells

(* ------------------------------------------------------------------ *)
(* Baselines and the CI gate                                           *)
(* ------------------------------------------------------------------ *)

(* The two committed baselines: BENCH_explore.json holds the E11, E14, E15
   and E18b cells, BENCH_load.json the E17 and E18 load cells. A cell is
   one line holding its key and its deterministic counters only, so a run
   at the same budget on unchanged code rewrites the file byte for byte. *)
type baseline = { file : string; experiment : string }

let explore_json =
  { file = "BENCH_explore.json"; experiment = "E11+E14+E15+E18b" }

let load_json = { file = "BENCH_load.json"; experiment = "E17+E18" }

let render b cells =
  Printf.sprintf "{\n  \"experiment\": %S,\n  \"cells\": [\n%s\n  ]\n}\n"
    b.experiment (String.concat ",\n" cells)

(* Only quick-budget cells, the ones [gate] compares, are ever written: a
   full-budget pass prints its tables and leaves the baseline alone. *)
let write_baseline ~quick b cells =
  if quick then begin
    Out_channel.with_open_bin b.file (fun oc ->
        output_string oc (render b cells));
    Fmt.pr "Wrote %s (%d cells).@." b.file (List.length cells)
  end
  else
    Fmt.pr "%s left as committed: it holds quick-budget cells.@." b.file

let explore_cells ~quick =
  e11 ~quick () @ e14 ~quick () @ e15 ~quick () @ e18_explore ~quick ()

let load_cells ~quick = e17 ~quick () @ e18_load ~quick ()

(* Re-run the quick passes behind both baselines and compare the fresh
   files with the committed ones as sets of lines (indentation and a
   cell's trailing comma aside). Every field is an exact counter, so any
   difference means the behaviour changed: the gate prints each line that
   only one side has and exits 1 (2 when a file cannot be read). A change
   that moves a counter on purpose regenerates the file ([-- e11 quick],
   [-- e17 quick]) in the same commit. The gate never writes the files and
   judges no wall-clock rate; bench/e2e's [compare] does that. *)
let gate () =
  let lines s =
    List.filter_map
      (fun l ->
        let l = String.trim l in
        if l = "" then None
        else if String.ends_with ~suffix:"," l then
          Some (String.sub l 0 (String.length l - 1))
        else Some l)
      (String.split_on_char '\n' s)
  in
  let read b =
    try lines (In_channel.with_open_bin b.file In_channel.input_all)
    with Sys_error msg ->
      Fmt.pr "gate: cannot read %s (%s)@." b.file msg;
      exit 2
  in
  (* read both files first, so a missing one fails before the passes run *)
  let families =
    [ (explore_json, read explore_json, explore_cells);
      (load_json, read load_json, load_cells) ]
  in
  let differing =
    List.fold_left
      (fun n (b, committed, cells) ->
        let fresh = lines (render b (cells ~quick:true)) in
        let only a b = List.filter (fun l -> not (List.mem l b)) a in
        let gone = only committed fresh and added = only fresh committed in
        hr (Printf.sprintf "Perf gate: %s (- committed, + fresh)" b.file);
        List.iter (Fmt.pr "- %s@.") gone;
        List.iter (Fmt.pr "+ %s@.") added;
        let d = List.length gone + List.length added in
        if d = 0 then Fmt.pr "%s reproduced exactly.@." b.file
        else Fmt.pr "%s: %d line(s) differ.@." b.file d;
        n + d)
      0 families
  in
  if differing > 0 then begin
    Fmt.pr
      "gate: counters differ from the committed baselines. If the change \
       is meant, regenerate them with `-- e11 quick` / `-- e17 quick`, \
       commit them and say why in CHANGES.md.@.";
    exit 1
  end
  else Fmt.pr "gate: every counter matches the committed baselines. OK@."

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock micro-benchmarks of the experiment drivers      *)
(* ------------------------------------------------------------------ *)

let bechamel_pass () =
  hr "Wall-clock timings of the simulation drivers (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let tests =
    [
      Test.make ~name:"e1-lemma2-dstm-i8"
        (Staged.stage (fun () -> ignore (Lemma2.run (module Ptm_tms.Dstm) ~i:8)));
      Test.make ~name:"e2-thm3-dstm-m8"
        (Staged.stage (fun () ->
             ignore (Theorem3.run (module Ptm_tms.Dstm) ~m:8)));
      Test.make ~name:"e4-mutex-mcs-n8"
        (Staged.stage (fun () ->
             ignore
               (Ptm_mutex.Harness.run (module Ptm_mutex.Mcs) ~nprocs:8
                  ~rounds:2 ())));
      Test.make ~name:"e4-tm-mutex-n8"
        (Staged.stage (fun () ->
             ignore
               (Ptm_mutex.Harness.run
                  (module Ptm_mutex.Mutex_registry.Tm_oneshot)
                  ~nprocs:8 ~rounds:2 ())));
      Test.make ~name:"e5-tightness-tl2-m64"
        (Staged.stage (fun () ->
             ignore (Tightness.read_only_cost (module Ptm_tms.Tl2) ~m:64)));
    ]
    @ (* one standard-workload simulation timing per TM *)
    List.map
      (fun (module T : Tm_intf.S) ->
        Test.make ~name:("workload-" ^ T.name)
          (Staged.stage (fun () ->
               let w =
                 Workload.random ~seed:3 ~nprocs:4 ~nobjs:8 ~txs_per_proc:4
                   ~ops_per_tx:4 ()
               in
               ignore
                 (Runner.run (module T) ~retries:30
                    ~schedule:(Runner.Random_sched 3) w))))
      Ptm_tms.Registry.all
  in
  let test = Test.make_grouped ~name:"ptm" ~fmt:"%s/%s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some [ est ] -> Fmt.pr "%-32s %12.0f ns/run@." name est
      | _ -> Fmt.pr "%-32s (no estimate)@." name)
    (List.sort compare names)

(* Every word the dispatcher knows; any other exits 2 before a pass runs,
   so a typo cannot fall through to the full suite. *)
let accepted =
  [ "fast"; "quick"; "e11"; "e13"; "e14"; "e15"; "e17"; "e18"; "gate" ]

let () =
  let words = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun w -> not (List.mem w accepted)) words with
  | [] -> ()
  | unknown ->
      Fmt.epr "bench: unknown argument %s; accepted: %s@."
        (String.concat " " unknown)
        (String.concat " " accepted);
      exit 2);
  let arg a = List.mem a words in
  let fast = arg "fast" in
  let quick = arg "quick" in
  Fmt.pr
    "Progressive Transactional Memory in Time and Space — experiment suite@.";
  if arg "e11" then write_baseline ~quick explore_json (explore_cells ~quick)
  else if arg "e13" then e13 ()
  else if arg "e14" then ignore (e14 ~quick ())
  else if arg "e15" then ignore (e15 ~quick ())
  else if arg "e17" then write_baseline ~quick load_json (load_cells ~quick)
  else if arg "e18" then begin
    ignore (e18_explore ~quick ());
    ignore (e18_load ~quick ())
  end
  else if arg "gate" then gate ()
  else begin
    e1 ();
    e2_e3 ();
    e4 ();
    e5_e6 ();
    e7 ();
    e8 ();
    e9 ();
    e10 ();
    let c11 = e11 ~quick () in
    e13 ();
    let c14 = e14 ~quick () in
    let c15 = e15 ~quick () in
    let c18x = e18_explore ~quick () in
    write_baseline ~quick explore_json (c11 @ c14 @ c15 @ c18x);
    write_baseline ~quick load_json (load_cells ~quick);
    if not fast then bechamel_pass ()
  end;
  Fmt.pr "@.done.@."
