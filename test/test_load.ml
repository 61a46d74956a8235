(* The load engine. Small deterministic cells: full accounting (every
   generated transaction ends up committed, failed or unstarted),
   run-to-run determinism, both client models, full-sample opacity
   monitoring (plain and sharded TMs), partial-sample filtering, online
   RMR accounting, and crash-under-load. *)

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
          Alcotest.test_case "config validation" `Quick test_bad_configs;
        ] );
    ]
