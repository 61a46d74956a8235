(* The load engine. Small deterministic cells: full accounting (every
   generated transaction ends up committed, failed or unstarted),
   run-to-run determinism, both client models, full-sample opacity
   monitoring (plain and sharded TMs), partial-sample filtering, online
   RMR accounting, crash-under-load, and the back-off before a retry. *)

open Ptm_core

let base =
  {
    Load.default_config with
    Load.clients = 12;
    nprocs = 3;
    nobjs = 16;
    txs_per_client = 6;
    retries = 6;
    seed = 42;
  }

let check_verdict name r =
  match r.Load.verdict with
  | Some Opacity_stream.Opaque -> ()
  | Some (Opacity_stream.Violation v) ->
      Alcotest.failf "%s: opacity violation: %a" name
        Opacity_stream.pp_violation v
  | Some (Opacity_stream.Inconclusive why) ->
      Alcotest.failf "%s: monitor inconclusive: %s" name why
  | None -> Alcotest.failf "%s: monitor not armed" name

let check_accounting cfg (r : Load.result) =
  Alcotest.(check int)
    "all transactions accounted"
    (cfg.Load.clients * cfg.Load.txs_per_client)
    (r.Load.committed + r.Load.failed + r.Load.unstarted)

let test_full_sample_clean () =
  List.iter
    (fun tm_name ->
      let (module T) = Option.get (Ptm_tms.Registry.by_name tm_name) in
      let cfg = { base with Load.sample = 1.0 } in
      let r = Load.run (module T) cfg in
      check_accounting cfg r;
      Alcotest.(check bool) (tm_name ^ ": committed") true (r.Load.committed > 0);
      Alcotest.(check bool)
        (tm_name ^ ": finished within budget")
        false r.Load.out_of_slots;
      Alcotest.(check int)
        (tm_name ^ ": every client monitored")
        cfg.Load.clients r.Load.monitored_clients;
      check_verdict tm_name r)
    [ "norec"; "tl2"; "norec.x4"; "sgl.x4" ]

let test_deterministic () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec.x4") in
  let cfg = { base with Load.rmr_models = Ptm_machine.Rmr.all_models } in
  let key (r : Load.result) =
    (r.Load.committed, r.Load.aborted, r.Load.failed, r.Load.steps,
     r.Load.wasted, r.Load.idle, r.Load.rmr)
  in
  Alcotest.(check bool)
    "same config, same run" true
    (key (Load.run (module T) cfg) = key (Load.run (module T) cfg))

let test_open_loop () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  let cfg =
    { base with Load.model = Load.Open_loop { period = 400 }; sample = 1.0 }
  in
  let r = Load.run (module T) cfg in
  check_accounting cfg r;
  check_verdict "open loop" r;
  (* a 400-step inter-arrival gap on short transactions leaves idle time *)
  Alcotest.(check bool) "idle ticks happen" true (r.Load.idle > 0)

let test_closed_loop_think () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  let cfg =
    { base with Load.model = Load.Closed_loop { think = 300 }; sample = 1.0 }
  in
  let r = Load.run (module T) cfg in
  check_accounting cfg r;
  check_verdict "closed loop" r;
  Alcotest.(check bool) "idle ticks happen" true (r.Load.idle > 0)

let test_partial_sample () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "tl2") in
  let cfg = { base with Load.sample = 0.4 } in
  let r = Load.run (module T) cfg in
  check_accounting cfg r;
  check_verdict "partial sample" r;
  Alcotest.(check bool)
    "a strict subset of clients monitored" true
    (r.Load.monitored_clients > 0
    && r.Load.monitored_clients < cfg.Load.clients)

let test_partial_sample_flat_state () =
  (* every unsampled transaction still hands the checker its id, so the
     set of ids seen stays one interval: the checker's resident state does
     not grow with the run (sgl: the frontier stays one state) *)
  let (module T) = Option.get (Ptm_tms.Registry.by_name "sgl") in
  let max_resident txs =
    let cfg =
      {
        base with
        Load.clients = 64;
        nprocs = 4;
        nobjs = 64;
        txs_per_client = txs;
        sample = 0.25;
        mix = { base.Load.mix with write_ratio = 0.2 };
      }
    in
    let r = Load.run (module T) cfg in
    check_verdict "sgl, 25% sampled" r;
    (Option.get r.Load.monitor_stats).Opacity_stream.max_resident
  in
  let short = max_resident 20 and long = max_resident 80 in
  (* the live window's version entries still vary a little with the run *)
  Alcotest.(check bool)
    (Printf.sprintf "peak resident state %d over 4x the transactions, %d before"
       long short)
    true
    (4 * long < 5 * short)

let test_rmr_accounting () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  let cfg = { base with Load.rmr_models = Ptm_machine.Rmr.all_models } in
  let r = Load.run (module T) cfg in
  Alcotest.(check int) "three models" 3 (List.length r.Load.rmr);
  List.iter
    (fun (m, n) ->
      Alcotest.(check bool) (m ^ ": RMRs counted") true (n > 0);
      Alcotest.(check bool) (m ^ ": bounded by steps") true (n <= r.Load.steps))
    r.Load.rmr

let test_crash_under_load () =
  List.iter
    (fun tm_name ->
      let (module T) = Option.get (Ptm_tms.Registry.by_name tm_name) in
      let cfg =
        {
          base with
          Load.sample = 1.0;
          faults = [ Ptm_machine.Fault.crash ~pid:1 ~at:200 ];
          max_slots = 400_000;
        }
      in
      let r = Load.run (module T) cfg in
      (* the crashed process strands its clients (and, for lock-based TMs,
         possibly everyone spinning on what it holds) — but whatever
         completes must be opaque *)
      Alcotest.(check bool)
        (tm_name ^ ": some transactions lost")
        true
        (r.Load.unstarted > 0 || r.Load.out_of_slots);
      match r.Load.verdict with
      | Some (Opacity_stream.Violation v) ->
          Alcotest.failf "%s: opacity violation under crash: %a" tm_name
            Opacity_stream.pp_violation v
      | Some (Opacity_stream.Opaque | Opacity_stream.Inconclusive _) -> ()
      | None -> Alcotest.failf "%s: monitor not armed" tm_name)
    [ "norec"; "norec.x4" ]

let test_zipf_hot_mix () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec.x4") in
  (* write-heavy mixes pile up overlapping write-only commits whose order
     nothing ever forces, so the checker's frontier can grow without bound
     and [Inconclusive] is its honest answer — a [Violation] is still a
     hard failure *)
  let cfg =
    {
      base with
      Load.sample = 1.0;
      mix =
        {
          Load.dist = Workload.Zipf 0.9;
          hotspot = Some (2, 0.3);
          write_ratio = 0.8;
          ops_min = 1;
          ops_max = 4;
        };
    }
  in
  let r = Load.run (module T) cfg in
  check_accounting cfg r;
  match r.Load.verdict with
  | Some (Opacity_stream.Violation v) ->
      Alcotest.failf "zipf+hot mix: opacity violation: %a"
        Opacity_stream.pp_violation v
  | Some (Opacity_stream.Opaque | Opacity_stream.Inconclusive _) -> ()
  | None -> Alcotest.fail "zipf+hot mix: monitor not armed"

(* [sgl] under a forwarding wrapper that logs, per pid, the serving
   process's own step count whenever an attempt begins (a host read: the
   wrapper adds no step). sgl never aborts, so every abort below is an
   injected one. *)
let logged_sgl () =
  let machine = ref None and starts = ref [] in
  let module W = struct
    include Ptm_tms.Sgl

    let create m ~nobjs =
      machine := Some m;
      create m ~nobjs

    let fresh t ~pid ~id =
      let m = Option.get !machine in
      starts := (pid, Ptm_machine.Machine.steps_of m pid) :: !starts;
      fresh t ~pid ~id
  end in
  let starts_of pid =
    List.rev
      (List.filter_map
         (fun (p, s) -> if p = pid then Some s else None)
         !starts)
  in
  ((module W : Tm_intf.S), starts_of)

(* one single-write transaction per client, one client per process *)
let one_write nprocs =
  {
    base with
    Load.clients = nprocs;
    nprocs;
    txs_per_client = 1;
    mix =
      { base.Load.mix with Load.write_ratio = 1.0; ops_min = 1; ops_max = 1 };
  }

(* aborts injected at the first operation of a process's first two
   attempts *)
let first_ops pid =
  Ptm_machine.Fault.[ abort ~pid ~op:0; abort ~pid ~op:1 ]

(* An abort injected at a transaction's first operation costs the attempt
   no step, so the gaps between attempt starts are exactly the waits:
   before retry k, p2 of 3 waits min 1024 (2^k + 2 * 2^k / 3), i.e. 1 then
   3 idle ticks, counted in [idle] and not in [wasted]. *)
let test_retry_wait_pinned () =
  let tm, starts_of = logged_sgl () in
  let cfg = { (one_write 3) with Load.faults = first_ops 2 } in
  let r = Load.run tm cfg in
  Alcotest.(check (list int)) "p2's attempts start at own steps" [ 0; 1; 4 ]
    (starts_of 2);
  Alcotest.(check int) "two injected aborts" 2 r.Load.aborted;
  Alcotest.(check int) "all commit" 3 r.Load.committed;
  Alcotest.(check int) "the waits are idle ticks" 4 r.Load.idle;
  Alcotest.(check int) "and not wasted steps" 0 r.Load.wasted

(* Two processes abort their first attempt in one round and wait 1 tick
   each, abort again in one round, and then wait 2 and 2 + 1 * 2 / 2 = 3:
   under the round-robin drive their third attempts start in different
   rounds. *)
let test_same_round_retries_spread () =
  let tm, starts_of = logged_sgl () in
  let cfg = { (one_write 2) with Load.faults = first_ops 0 @ first_ops 1 } in
  let r = Load.run tm cfg in
  Alcotest.(check int) "both commit" 2 r.Load.committed;
  Alcotest.(check (list int)) "p0's attempts" [ 0; 1; 3 ] (starts_of 0);
  Alcotest.(check (list int)) "p1's attempts" [ 0; 1; 4 ] (starts_of 1)

(* A small skewed write-heavy cell: retrying at once, lock-based TMs
   abandon transactions at the retry budget; backing off, none does. *)
let test_contended_cell_completes () =
  List.iter
    (fun tm_name ->
      let (module T) = Option.get (Ptm_tms.Registry.by_name tm_name) in
      let cfg =
        {
          base with
          Load.retries = Load.default_config.Load.retries;
          mix =
            {
              Load.dist = Workload.Zipf 0.9;
              hotspot = None;
              write_ratio = 0.8;
              ops_min = 2;
              ops_max = 6;
            };
        }
      in
      let r = Load.run (module T) cfg in
      check_accounting cfg r;
      Alcotest.(check int) (tm_name ^ ": nothing abandoned") 0 r.Load.failed)
    [ "lazy-orec"; "dstm"; "tl2" ]

(* ------------------------------------------------------------------ *)
(* Clients: the served order, the due heap, set-up cost                *)
(* ------------------------------------------------------------------ *)

(* Every counter of a run, the monitor's verdict and the monitored count;
   [wall] alone is left out. *)
let pinned (r : Load.result) =
  Printf.sprintf
    "%d committed, %d aborted, %d failed, %d unstarted, %d steps (%d wasted, \
     %d idle), rmr [%s], starved [%s], %d monitored, out of slots %b, %s"
    r.Load.committed r.Load.aborted r.Load.failed r.Load.unstarted
    r.Load.steps r.Load.wasted r.Load.idle
    (String.concat "; "
       (List.map (fun (m, n) -> Printf.sprintf "%s %d" m n) r.Load.rmr))
    (String.concat "; " (List.map string_of_int r.Load.starved))
    r.Load.monitored_clients r.Load.out_of_slots
    (match r.Load.verdict with
    | None -> "unmonitored"
    | Some v -> Format.asprintf "%a" Opacity_stream.pp_verdict v)

(* Cells off the perf gate's closed-loop, think-0 path, where not every
   client starts due at 0: open-loop phases, think time, partial sampling,
   a crash and a livelock latch. The expected lines are what the linear
   scan over each process's clients served ([ptm load] at its default
   seed prints the same counters). *)
let test_served_order_pinned () =
  let cell tm_name cfg expected =
    let (module T) = Option.get (Ptm_tms.Registry.by_name tm_name) in
    Alcotest.(check string) tm_name expected (pinned (Load.run (module T) cfg))
  in
  let d = Load.default_config in
  let inconclusive seq =
    Printf.sprintf
      "inconclusive: frontier exceeded 256 states at seq %d (pathological \
       commit-window overlap)"
      seq
  in
  cell "tl2"
    {
      d with
      Load.clients = 300;
      txs_per_client = 7;
      model = Load.Open_loop { period = 37 };
      sample = 0.25;
      rmr_models = Ptm_machine.Rmr.all_models;
    }
    ("2100 committed, 957 aborted, 0 failed, 0 unstarted, 47913 steps (8189 \
      wasted, 3539 idle), rmr [CC/WT 26306; CC/WB 20479; DSM 44374], starved \
      [], 64 monitored, out of slots false, "
    ^ inconclusive 1655);
  cell "norec.x4"
    {
      d with
      Load.clients = 301;
      txs_per_client = 5;
      model = Load.Closed_loop { think = 13 };
      sample = 0.5;
      rmr_models = Ptm_machine.Rmr.all_models;
    }
    ("1504 committed, 155 aborted, 1 failed, 0 unstarted, 89955 steps (23195 \
      wasted, 13878 idle), rmr [CC/WT 27677; CC/WB 20405; DSM 76077], \
      starved [], 153 monitored, out of slots false, "
    ^ inconclusive 6621);
  cell "dstm"
    {
      d with
      Load.clients = 40;
      txs_per_client = 9;
      model = Load.Open_loop { period = 0 };
      faults = [ Ptm_machine.Fault.crash ~pid:2 ~at:300 ];
      livelock_window = Some 80;
      sample = 0.3;
      max_slots = 300_000;
    }
    "208 committed, 705 aborted, 39 failed, 113 unstarted, 299999 steps (4145 \
     wasted, 292186 idle), rmr [], starved [], 12 monitored, out of slots \
     true, opaque"

(* The heap against the scan it replaced: over random due times, retimes
   and removals, [Due.next] names what a scan of the live indices in order,
   keeping the first strictly earlier due one, names — the earliest due,
   the lowest index among ties, and nothing when the earliest is due
   later. *)
let scan due live now =
  let best = ref None in
  Array.iteri
    (fun i d ->
      if live.(i) && d <= now then
        match !best with
        | Some b when due.(b) <= d -> ()
        | _ -> best := Some i)
    due;
  !best

let prop_due_matches_scan =
  let open QCheck2 in
  let gen =
    Gen.(
      pair
        (list_size (1 -- 40) (int_bound 20))
        (list_size (0 -- 120) (pair (int_bound 4) (int_range (-1) 30))))
  in
  let print (dues, ops) =
    Printf.sprintf "due=[%s] ops=[%s]"
      (String.concat ";" (List.map string_of_int dues))
      (String.concat ";"
         (List.map (fun (dt, at) -> Printf.sprintf "+%d:%d" dt at) ops))
  in
  Test.make ~count:500 ~name:"due heap chooses what the scan chose" ~print gen
    (fun (dues, ops) ->
      let due = Array.of_list dues in
      let live = Array.map (fun _ -> true) due in
      let q = Load.Due.create (Array.copy due) in
      let now = ref 0 in
      (* each op advances the clock by [dt], then serves the chosen index,
         if any: [at < 0] removes it, otherwise it is due again at
         [now + at] *)
      List.for_all
        (fun (dt, at) ->
          now := !now + dt;
          let expected = scan due live !now in
          let chosen = Load.Due.next q ~now:!now in
          let agree =
            chosen = expected
            && Load.Due.is_empty q = not (Array.exists Fun.id live)
          in
          (match chosen with
          | Some i when at < 0 ->
              live.(i) <- false;
              Load.Due.remove q
          | Some i ->
              due.(i) <- !now + at;
              Load.Due.retime q (!now + at);
              assert (Load.Due.due q i = due.(i))
          | None -> ());
          agree)
        ops)

(* Set-up allocates O(1) words per client: no generator is made before a
   client's first transaction. With no transactions at all, the words a
   run allocates grow by at most 16 per client between 256 and 4,352
   clients (making a generator alone allocates ~60). The clients are
   spread over 32 processes so that every per-process array stays under
   the minor heap's 256-word limit: [Gc.minor_words] then sees every word,
   exactly, where OCaml 5's major-heap counters lag. *)
let test_setup_words_per_client () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  List.iter
    (fun sample ->
      let words clients =
        let cfg =
          {
            Load.default_config with
            Load.clients;
            nprocs = 32;
            txs_per_client = 0;
            sample;
          }
        in
        let before = Gc.minor_words () in
        ignore (Load.run (module T) cfg : Load.result);
        Gc.minor_words () -. before
      in
      ignore (words 256 : float);
      let per_client = (words 4352 -. words 256) /. 4096. in
      Alcotest.(check bool)
        (Printf.sprintf "sample %.1f: %.1f words per client <= 16" sample
           per_client)
        true (per_client <= 16.))
    [ 0.0; 1.0 ]

(* Set-up allocates O(1) minor words per base object: a cell's name is
   formatted only when asked, so with no transactions a run's minor words
   grow by at most 12 per cell between 64 and 4,160 t-objects (a record
   of 8 words; formatting each name cost about 52 more). Arrays that large
   go straight to the major heap, so [Gc.minor_words] counts only what
   each cell allocates itself. *)
let test_setup_words_per_cell () =
  List.iter
    (fun tm ->
      let (module T) = Option.get (Ptm_tms.Registry.by_name tm) in
      let cells nobjs =
        let m = Ptm_machine.Machine.create ~nprocs:1 () in
        ignore (T.create m ~nobjs : T.t);
        float_of_int (Ptm_machine.Memory.size (Ptm_machine.Machine.memory m))
      in
      let words nobjs =
        let cfg = { Load.default_config with Load.nobjs; txs_per_client = 0 } in
        let before = Gc.minor_words () in
        ignore (Load.run (module T) cfg : Load.result);
        Gc.minor_words () -. before
      in
      ignore (words 64 : float);
      let per_cell = (words 4160 -. words 64) /. (cells 4160 -. cells 64) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per cell <= 12" tm per_cell)
        true (per_cell <= 12.))
    [ "norec"; "tl2" ]

(* A run the slot budget stops before most clients start still counts
   the monitored clients of the whole run: those never started by the
   draw their stream would make first. *)
let test_monitored_without_starting () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  let monitored sample max_slots =
    let cfg =
      {
        Load.default_config with
        Load.clients = 400;
        txs_per_client = 4;
        sample;
        max_slots;
      }
    in
    let r = Load.run (module T) cfg in
    if max_slots < Load.default_config.Load.max_slots then
      Alcotest.(check bool)
        "most clients never started" true
        (r.Load.out_of_slots && r.Load.unstarted > 3 * 400);
    r.Load.monitored_clients
  in
  let full = monitored 0.25 Load.default_config.Load.max_slots in
  Alcotest.(check bool)
    "a strict subset monitored" true
    (full > 0 && full < 400);
  Alcotest.(check int) "sample 0.25" full (monitored 0.25 200);
  Alcotest.(check int) "sample 1.0" 400 (monitored 1.0 200);
  Alcotest.(check int) "sample 0" 0 (monitored 0.0 200)

let test_bad_configs () =
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec") in
  let expect name cfg =
    match Load.run (module T) cfg with
    | (_ : Load.result) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect "zero clients" { base with Load.clients = 0 };
  expect "more procs than clients" { base with Load.nprocs = 100 };
  expect "bad sample" { base with Load.sample = 1.5 };
  expect "bad length range"
    { base with Load.mix = { base.Load.mix with Load.ops_min = 0 } };
  expect "negative retries" { base with Load.retries = -5 };
  expect "write ratio above 1"
    { base with Load.mix = { base.Load.mix with Load.write_ratio = 1.5 } };
  expect "negative write ratio"
    { base with Load.mix = { base.Load.mix with Load.write_ratio = -0.1 } };
  (* rejected by [Load.validate] itself, before any machine is built, so
     the CLI reports them as bad input *)
  let rejects name cfg =
    match Load.validate cfg with
    | () -> Alcotest.failf "%s: Load.validate accepted it" name
    | exception Invalid_argument _ -> ()
  in
  rejects "zero objects" { base with Load.nobjs = 0 };
  rejects "hotspot wider than the objects"
    {
      base with
      Load.nobjs = 8;
      mix = { base.Load.mix with Load.hotspot = Some (100, 0.5) };
    };
  rejects "hotspot probability above 1"
    { base with Load.mix = { base.Load.mix with Load.hotspot = Some (2, 1.5) } };
  rejects "zero monitor frontier"
    { base with Load.monitor_frontier = 0; sample = 1.0 };
  rejects "negative slot budget" { base with Load.max_slots = -1 }

let () =
  Alcotest.run "load"
    [
      ( "engine",
        [
          Alcotest.test_case "full-sample runs are opaque" `Quick
            test_full_sample_clean;
          Alcotest.test_case "deterministic under a seed" `Quick
            test_deterministic;
          Alcotest.test_case "open loop" `Quick test_open_loop;
          Alcotest.test_case "closed loop with think time" `Quick
            test_closed_loop_think;
          Alcotest.test_case "partial sampling" `Quick test_partial_sample;
          Alcotest.test_case "partial sampling: flat checker state" `Quick
            test_partial_sample_flat_state;
          Alcotest.test_case "online RMR accounting" `Quick test_rmr_accounting;
          Alcotest.test_case "crash under load" `Quick test_crash_under_load;
          Alcotest.test_case "zipf + hotspot mix" `Quick test_zipf_hot_mix;
          Alcotest.test_case "retry wait pinned" `Quick test_retry_wait_pinned;
          Alcotest.test_case "same-round retries spread" `Quick
            test_same_round_retries_spread;
          Alcotest.test_case "contended cell completes" `Quick
            test_contended_cell_completes;
          Alcotest.test_case "config validation" `Quick test_bad_configs;
        ] );
      ( "clients",
        [
          Alcotest.test_case "served order pinned" `Quick
            test_served_order_pinned;
          QCheck_alcotest.to_alcotest prop_due_matches_scan;
          Alcotest.test_case "set-up words per client" `Quick
            test_setup_words_per_client;
          Alcotest.test_case "set-up words per cell" `Quick
            test_setup_words_per_cell;
          Alcotest.test_case "monitored count without starting" `Quick
            test_monitored_without_starting;
        ] );
    ]
