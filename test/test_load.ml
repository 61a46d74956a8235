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
    ]
