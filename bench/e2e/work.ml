(* The four workloads: how each is set up, what one untraced rep runs, and
   what the traced pass measures. Every number comes from calls into public
   functions ([Load.run], [Runner.run], [Explore.run],
   [Opacity_stream.on_event], [Machine.step/feed/restart], [Rmr.count])
   made from here. *)

open Ptm_machine
open Ptm_core

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Closed loop, think 0: 256 clients on 4 machine processes over 64
   t-objects, 2..6 operations per transaction. Clients retry an aborted
   transaction until it commits (the cap is never reached): with Load's
   usual cap of 8, every aborting TM abandons some transactions on these
   mixes, and a benchmark run must not fail operations. *)
let load_config ~tiny ~seed ~txs ~tm_mix:(dist, hotspot, write_ratio) =
  {
    Load.default_config with
    clients = (if tiny then 16 else 256);
    nprocs = 4;
    nobjs = 64;
    txs_per_client = (if tiny then 4 else txs);
    model = Load.Closed_loop { think = 0 };
    mix = { Load.dist; hotspot; write_ratio; ops_min = 2; ops_max = 6 };
    seed;
    retries = 1000;
    monitor_frontier = 256;
  }

type kind =
  | Load of { tm : Tm_intf.tm; cfg : Load.config }
  | Explore of Fixture.t

type t = { name : string; kind : kind }

let tm_named name =
  match Ptm_tms.Registry.by_name name with
  | Some tm -> tm
  | None -> invalid_arg ("unknown TM " ^ name)

(* The workload: registry lookup and config (for the explorer, the
   fixture, which builds its first machine). *)
let make ~tiny ~seed name =
  let load tm cfg = { name; kind = Load { tm = tm_named tm; cfg } } in
  match name with
  | "load-read" ->
      load "norec"
        {
          (load_config ~tiny ~seed ~txs:400 ~tm_mix:(Workload.Uniform, None, 0.2)) with
          rmr_models = Rmr.all_models;
        }
  | "load-write" ->
      load "sgl"
        {
          (load_config ~tiny ~seed ~txs:300 ~tm_mix:(Workload.Zipf 0.9, None, 0.8)) with
          sample = 1.0;
        }
  | "load-sharded" ->
      load "norec.x4"
        (load_config ~tiny ~seed ~txs:100 ~tm_mix:(Workload.Uniform, Some (4, 0.5), 0.5))
  | "explore-dpor" ->
      { name; kind = Explore (Fixture.make ~nprocs:(if tiny then 2 else 3) ~seed) }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* One set-up, as a run pays it: [make], then for a load workload a
   [Load.run] that serves no transaction — Load's own set-up (machine, TM
   base objects, runner, scratch cells, clients, monitor, RMR streams) and
   the drain of the empty processes. *)
let setup ~tiny ~seed name =
  let w = make ~tiny ~seed name in
  (match w.kind with
  | Load { tm; cfg } -> ignore (Load.run tm { cfg with txs_per_client = 0 } : Load.result)
  | Explore _ -> ());
  w

(* ------------------------------------------------------------------ *)
(* One untraced rep                                                     *)
(* ------------------------------------------------------------------ *)

(* The heap is sampled at the end of every major cycle during a rep. *)
let heap_peak = ref 0

let sample_heap () =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !heap_peak then heap_peak := h

let (_ : Gc.alarm) = Gc.create_alarm sample_heap

type outcome =
  | Served of Load.result
  | Explored of Explore.stats

type rep = {
  wall : float;
  outcome : outcome;
  minor_words : float;
  major_collections : int;
  heap_peak_words : int;
}

(* Counters that must repeat exactly across reps of one seed. *)
let counters = function
  | Served r ->
      [
        ("committed", r.Load.committed); ("aborted", r.aborted); ("failed", r.failed);
        ("unstarted", r.unstarted); ("steps", r.steps); ("wasted", r.wasted);
        ("idle", r.idle);
        ( "monitor_events",
          match r.monitor_stats with Some s -> s.Opacity_stream.events | None -> -1 );
      ]
      @ r.rmr
  | Explored s ->
      [
        ("paths", s.Explore.paths); ("cut", s.cut); ("pruned", s.pruned);
        ("violations", s.violations); ("replays", s.replays); ("steps", s.steps);
        ("fed", s.replay_steps_saved); ("exhausted", Bool.to_int s.exhausted);
      ]

let verdict_name = function
  | Some Opacity_stream.Opaque -> "opaque"
  | Some (Opacity_stream.Violation _) -> "violation"
  | Some (Opacity_stream.Inconclusive _) -> "inconclusive"
  | None -> "unmonitored"

let timed f =
  Gc.compact ();
  Gc.compact ();
  heap_peak := 0;
  sample_heap ();
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  let x = f () in
  let wall = now () -. t0 in
  sample_heap ();
  ( x,
    wall,
    Gc.minor_words () -. minor0,
    (Gc.quick_stat ()).Gc.major_collections - major0 )

let bare w =
  let outcome, wall, minor_words, major_collections =
    timed (fun () ->
        match w.kind with
        | Load { tm; cfg } -> Served (Load.run tm cfg)
        | Explore fx -> Explored (Fixture.explore fx))
  in
  { wall; outcome; minor_words; major_collections; heap_peak_words = !heap_peak }

(* Issued, failed: what the run was asked to do and what it did not
   complete. A load transaction fails when abandoned or never started; an
   explored leaf fails when it violates or is cut at the step bound. *)
let attempted_failed = function
  | Served r -> (r.Load.committed + r.failed + r.unstarted, r.failed + r.unstarted)
  | Explored s -> (s.Explore.paths + s.cut, s.violations + s.cut)

(* Problems with one rep's outcome on its own. *)
let check_outcome w o =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match o, w.kind with
  | Served r, Load { cfg; _ } ->
      if r.out_of_slots then err "%s: out of scheduler slots" w.name;
      (match r.verdict with
      | Some (Opacity_stream.Violation v) ->
          err "%s: opacity violation: %s" w.name v.Opacity_stream.v_reason
      | Some (Opacity_stream.Inconclusive _) when cfg.sample >= 1.0 ->
          err "%s: the monitor did not decide" w.name
      | _ -> ())
  | Explored s, Explore _ ->
      if s.violations > 0 then err "%s: %d violating leaves" w.name s.violations;
      if s.exhausted then err "%s: path budget exhausted" w.name
  | _ -> err "%s: outcome of the wrong kind" w.name);
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* The traced pass                                                      *)
(* ------------------------------------------------------------------ *)

type traced = {
  t_wall : float;  (** wall of the instrumented rep *)
  commits : int;  (** committed transactions (explore: in complete leaves) *)
  latencies : int array;  (** sorted own-step latencies of those commits *)
  t_outcome : outcome;
  probe : Probe.t option;
}

let sorted_of_hist hist =
  let v = Probe.Vec.create 0 in
  Array.iteri (fun lat k -> for _ = 1 to k do Probe.Vec.push v lat done) hist;
  Probe.Vec.to_array v

let traced w =
  match w.kind with
  | Load { tm; cfg } ->
      let p = Probe.create ~retries:cfg.retries in
      let t0 = now () in
      let r = Load.run (Probe.wrap tm p) cfg in
      let t_wall = now () -. t0 in
      let latencies = Probe.Vec.to_array p.latencies in
      Array.sort compare latencies;
      {
        t_wall;
        commits = Probe.committed p;
        latencies;
        t_outcome = Served r;
        probe = Some p;
      }
  | Explore fx ->
      let tl = Fixture.tally () in
      let t0 = now () in
      let s = Fixture.explore ~final:(Fixture.counting_final fx tl) fx in
      let t_wall = now () -. t0 in
      {
        t_wall;
        commits = tl.commits;
        latencies = sorted_of_hist tl.hist;
        t_outcome = Explored s;
        probe = None;
      }

(* The traced rep must serve exactly what the bare reps served. *)
let check_traced w ~(reference : outcome) t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if counters t.t_outcome <> counters reference then
    err "%s: the traced rep's counters differ from the untraced reps'" w.name;
  (match t.t_outcome, reference, t.probe with
  | Served r, Served r0, Some p ->
      if verdict_name r.verdict <> verdict_name r0.verdict then
        err "%s: traced verdict %s, untraced %s" w.name (verdict_name r.verdict)
          (verdict_name r0.verdict);
      if Probe.committed p <> r.committed || p.failed <> r.failed then
        err "%s: the probe saw %d commits / %d failures, Load %d / %d" w.name
          (Probe.committed p) p.failed r.committed r.failed;
      (match r.monitor_stats with
      | Some ms ->
          let chk = Probe.replay p in
          let rs = Opacity_stream.stats chk in
          if rs.events <> ms.events then
            err "%s: replayed %d events, the run's monitor consumed %d" w.name
              rs.events ms.events;
          if verdict_name (Some (Opacity_stream.verdict chk)) <> verdict_name r.verdict
          then err "%s: the replay's verdict differs from the run's" w.name
      | None -> ())
  | Explored _, Explored _, None -> ()
  | _ -> err "%s: traced outcome of the wrong kind" w.name);
  List.rev !errs

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                    *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Run [f] at least once and for at least [min_time] seconds: seconds per
   call, and the last call's result. *)
let per_call ~min_time f =
  let t0 = now () in
  let x = ref (f ()) and iters = ref 1 in
  while now () -. t0 < min_time do
    x := f ();
    incr iters
  done;
  ((now () -. t0) /. fi !iters, !x)

(* The TM, Runner and monitor layers as the probe saw them; the monitor by
   replaying the captured history into a fresh checker. [monitored_wall]:
   the rep the monitor ran inside, if it did. *)
let probe_layers (p : Probe.t) ~monitored_wall =
  let replay_s, chk = per_call ~min_time:0.05 (fun () -> Probe.replay p) in
  let st = Opacity_stream.stats chk in
  let commits = Probe.committed p in
  let decided =
    match Opacity_stream.verdict chk with
    | Opacity_stream.Inconclusive _ ->
        (* commits whose response precedes the latching event *)
        Array.fold_left
          (fun k i -> if i < st.events - 1 then k + 1 else k)
          0 (Probe.Vec.to_array p.commit_at)
    | _ -> commits
  in
  [
    ("memory.cells", fi (Memory.size (Machine.memory (Probe.machine p))));
    ("tm.steps_per_read", Probe.steps_per p Probe.Read);
    ("tm.steps_per_write", Probe.steps_per p Probe.Write);
    ("tm.steps_per_commit", Probe.steps_per p Probe.Commit);
    ("runner.events", fi p.events.n);
    ( "monitor.share",
      match monitored_wall with Some w -> ratio replay_s w | None -> 0.0 );
    ("monitor.replay_s", replay_s);
    ("monitor.events_per_s", ratio (fi st.events) replay_s);
    ("monitor.max_frontier", fi st.max_frontier);
    ("monitor.max_resident", fi st.max_resident);
    ("monitor.decided_frac", ratio (fi decided) (fi commits));
  ]

(* [rmr_s]: seconds of RMR accounting over [events] steps, each accounted
   under every model. *)
let rmr_layers ~share ~rmr_s ~events ~commits rmr =
  let per_commit model =
    ratio (fi (Option.value ~default:0 (List.assoc_opt (Rmr.model_name model) rmr))) commits
  in
  [
    ("rmr.share", share);
    ("rmr.ns_per_event", ratio (rmr_s *. 1e9) (fi (events * List.length Rmr.all_models)));
    ("rmr.cc_wt_per_commit", per_commit Rmr.Cc_write_through);
    ("rmr.cc_wb_per_commit", per_commit Rmr.Cc_write_back);
    ("rmr.dsm_per_commit", per_commit Rmr.Dsm);
  ]

(* [bare_wall]: the untraced reps' median wall; [calib]: the machine's
   per-call costs on the explore fixture. A layer the workload does not run
   reads 0. *)
let layers w ~bare_wall ~(reps : rep list) ~(calib : Fixture.calibration) t =
  let nreps = fi (List.length reps) in
  let mean f = List.fold_left (fun a r -> a +. f r) 0.0 reps /. nreps in
  let commits = fi t.commits in
  let common =
    [
      ("gc.minor_words_per_commit", ratio (mean (fun r -> r.minor_words)) commits);
      ("gc.major_collections", mean (fun r -> fi r.major_collections));
      ("machine.step_ns", calib.step_ns);
      ("machine.feed_ns", calib.feed_ns);
      ("machine.restart_ns", calib.restart_ns);
      ("bench.trace_overhead", ratio t.t_wall bare_wall -. 1.0);
    ]
  in
  match w.kind, t.t_outcome, t.probe with
  | Load { tm; cfg }, Served r, Some p ->
      (* RMR accounting by ablation: the same seed with and without the
         three models (accounting never touches the rng or the schedule),
         two interleaved reps per side, fastest kept. *)
      let run c =
        let t0 = now () in
        let x = Load.run tm c in
        (x, now () -. t0)
      in
      let on_cfg = { cfg with rmr_models = Rmr.all_models }
      and off_cfg = { cfg with rmr_models = [] } in
      let r_on, on1 = run on_cfg in
      let _, off1 = run off_cfg in
      let _, on2 = run on_cfg in
      let _, off2 = run off_cfg in
      let with_rmr = Float.min on1 on2 in
      let rmr_s = with_rmr -. Float.min off1 off2 in
      common
      @ [
          ("load.abort_rate", Load.abort_rate r);
          ("load.wasted_frac", ratio (fi r.wasted) (fi r.steps));
          ("machine.steps_per_commit", ratio (fi r.steps) commits);
        ]
      @ probe_layers p ~monitored_wall:(if cfg.sample > 0.0 then Some bare_wall else None)
      @ rmr_layers
          ~share:(if cfg.rmr_models <> [] then ratio rmr_s with_rmr else 0.0)
          ~rmr_s ~events:r.steps ~commits r_on.rmr
      @ List.map
          (fun k -> (k, 0.0))
          [
            "explore.leaves"; "explore.pruned"; "explore.replays"; "explore.exec_steps";
            "explore.fed_steps"; "explore.exec_share"; "explore.replay_share";
          ]
  | Explore fx, Explored s, None ->
      (* the TM, Runner, monitor and RMR layers on one representative
         round-robin execution of the fixture's transactions, through the
         direct-style Ofree (derived from [Ofree.Stepwise] event for
         event) *)
      let p = Probe.create ~retries:0 in
      let o =
        Runner.run (Probe.wrap (module Ptm_tms.Ofree) p) ~schedule:Runner.Round_robin
          fx.workload
      in
      let mem = Machine.memory o.machine and trace = Machine.trace o.machine in
      let count_all () =
        List.map
          (fun model ->
            (Rmr.model_name model, (Rmr.count model ~nprocs:(Fixture.nprocs fx) mem trace).Rmr.total))
          Rmr.all_models
      in
      let rmr_s, rmr = per_call ~min_time:0.05 count_all in
      let events = List.length (Trace.mem_events trace) in
      let replay_est =
        (fi s.replays *. calib.restart_ns) +. (fi s.replay_steps_saved *. calib.feed_ns)
      in
      common
      @ [
          ("load.abort_rate", 0.0);
          ("load.wasted_frac", 0.0);
          ("machine.steps_per_commit", ratio (fi (s.steps + s.replay_steps_saved)) commits);
        ]
      @ probe_layers p ~monitored_wall:None
      @ rmr_layers ~share:0.0 ~rmr_s ~events ~commits:(fi o.commits) rmr
      @ [
          ("explore.leaves", fi (s.paths + s.cut));
          ("explore.pruned", fi s.pruned);
          ("explore.replays", fi s.replays);
          ("explore.exec_steps", fi s.steps);
          ("explore.fed_steps", fi s.replay_steps_saved);
          ("explore.exec_share", ratio (fi s.steps *. calib.step_ns *. 1e-9) bare_wall);
          ("explore.replay_share", ratio (replay_est *. 1e-9) bare_wall);
        ]
  | _ -> invalid_arg "Work.layers: traced outcome of the wrong kind"
