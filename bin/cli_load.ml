(* The heavy-traffic subcommand: drive the Load engine (thousands of
   logical clients multiplexed onto machine processes) against one TM,
   several, or the whole registry including the sharded family, and report
   abort rate / throughput / RMR / wasted work per TM. Owns its argument
   parsing (model, mix, distribution converters). *)

open Cmdliner
open Ptm_core

let resolve_tms names =
  if List.mem "all" names then Ptm_tms.Registry.(base @ x4)
  else
    List.map
      (fun n ->
        match Ptm_tms.Registry.find n with
        | Some e -> e
        | None ->
            Fmt.epr "unknown TM %S (try: all, %s)@." n
              (String.concat ", " Ptm_tms.Registry.names);
            exit 2)
      names

let model_conv =
  let parse s =
    let sub pfx =
      if
        String.length s > String.length pfx
        && String.sub s 0 (String.length pfx) = pfx
      then
        int_of_string_opt
          (String.sub s (String.length pfx) (String.length s - String.length pfx))
      else None
    in
    match (sub "open:", sub "closed:") with
    | Some period, _ when period >= 0 -> Ok (Load.Open_loop { period })
    | _, Some think when think >= 0 -> Ok (Load.Closed_loop { think })
    | _ ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown client model %S (open:PERIOD | closed:THINK, in \
                machine steps)"
               s))
  in
  let print ppf = function
    | Load.Open_loop { period } -> Fmt.pf ppf "open:%d" period
    | Load.Closed_loop { think } -> Fmt.pf ppf "closed:%d" think
  in
  Arg.conv (parse, print)

let dist_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "uniform" -> Ok Workload.Uniform
    | s when String.length s > 5 && String.sub s 0 5 = "zipf:" -> (
        match float_of_string_opt (String.sub s 5 (String.length s - 5)) with
        | Some theta when theta >= 0.0 -> Ok (Workload.Zipf theta)
        | _ -> Error (`Msg "zipf theta must be a nonnegative float"))
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "unknown object distribution %S (uniform | \
                             zipf:THETA)" s))
  in
  let print ppf = function
    | Workload.Uniform -> Fmt.string ppf "uniform"
    | Workload.Zipf theta -> Fmt.pf ppf "zipf:%g" theta
  in
  Arg.conv (parse, print)

let verdict_str = function
  | None -> "off"
  | Some Opacity_stream.Opaque -> "opaque"
  | Some (Opacity_stream.Violation _) -> "violation"
  | Some (Opacity_stream.Inconclusive _) -> "inconclusive"

let json_cell cfg (r : Load.result) =
  Printf.sprintf
    "    {\"tm\":%S,\"mix\":%S,\"model\":%S,\"clients\":%d,\"procs\":%d,\
     \"objs\":%d,\"committed\":%d,\"aborted\":%d,\"failed\":%d,\
     \"unstarted\":%d,\"steps\":%d,\"wasted\":%d,\"idle\":%d,\
     \"abort_rate\":%.4f,\"tx_per_sec\":%.1f,\"wall_s\":%.4f,\
     \"verdict\":%S,\"starved\":[%s]%s}"
    r.Load.tm
    (Format.asprintf "%a" Load.pp_mix cfg.Load.mix)
    (match cfg.Load.model with
    | Load.Open_loop { period } -> Printf.sprintf "open:%d" period
    | Load.Closed_loop { think } -> Printf.sprintf "closed:%d" think)
    cfg.Load.clients cfg.Load.nprocs cfg.Load.nobjs r.Load.committed
    r.Load.aborted r.Load.failed r.Load.unstarted r.Load.steps r.Load.wasted
    r.Load.idle (Load.abort_rate r) (Load.throughput r) r.Load.wall
    (verdict_str r.Load.verdict)
    (String.concat "," (List.map string_of_int r.Load.starved))
    (String.concat ""
       (List.map
          (fun (m, n) -> Printf.sprintf ",\"rmr_%s\":%d" m n)
          r.Load.rmr))

let load_cmd =
  let tms_arg =
    Arg.(
      value
      & opt_all string [ "all" ]
      & info [ "tm" ] ~docv:"TM"
          ~doc:
            "TM to load (repeatable); $(b,all) (the default) sweeps the \
             whole registry including the sharded family.")
  in
  let clients_arg =
    Arg.(
      value & opt int 64
      & info [ "clients" ] ~docv:"C" ~doc:"Logical clients.")
  in
  let procs_arg =
    Arg.(
      value & opt int 4
      & info [ "procs" ] ~docv:"N"
          ~doc:"Machine processes the clients are multiplexed onto.")
  in
  let objs_arg =
    Arg.(value & opt int 64 & info [ "objs" ] ~docv:"K" ~doc:"T-objects.")
  in
  let txs_arg =
    Arg.(
      value & opt int 16
      & info [ "txs" ] ~docv:"T" ~doc:"Transactions per client.")
  in
  let model_arg =
    Arg.(
      value
      & opt model_conv (Load.Closed_loop { think = 0 })
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Client model: $(b,open:PERIOD) (a new transaction every PERIOD \
             steps per client, backlog accumulates; 0 = saturation) or \
             $(b,closed:THINK) (re-arm THINK steps after each completion; \
             the default closed:0 saturates).")
  in
  let dist_arg =
    Arg.(
      value
      & opt dist_conv Workload.Uniform
      & info [ "mix" ] ~docv:"DIST"
          ~doc:
            "Object-selection distribution: $(b,uniform) or $(b,zipf:THETA) \
             (precomputed CDF, deterministic under the seed).")
  in
  let hot_arg =
    Arg.(
      value
      & opt (some (t2 ~sep:',' int float)) None
      & info [ "hot" ] ~docv:"H,P"
          ~doc:
            "Hot-key overlay: with probability P redirect the access to one \
             of the first H objects (uniformly).")
  in
  let write_ratio_arg =
    Arg.(
      value & opt float 0.5
      & info [ "write-ratio" ] ~docv:"W"
          ~doc:"Probability each access is a write.")
  in
  let ops_arg =
    Arg.(
      value
      & opt (t2 ~sep:':' int int) (2, 6)
      & info [ "ops" ] ~docv:"MIN:MAX"
          ~doc:"Transaction length, drawn uniformly from MIN..MAX.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int Load.default_config.Load.retries
      & info [ "retries" ] ~docv:"R"
          ~doc:
            "Retries per aborted transaction before it counts as failed; \
             before retry k, process p of n backs off for min(1024, 2^k + \
             p*2^k/n) idle ticks.")
  in
  let sample_arg =
    Arg.(
      value & opt float 0.0
      & info [ "sample" ] ~docv:"F"
          ~doc:
            "Fraction of clients under the streaming opacity monitor (0: \
             off, 1.0: the whole run). A violation exits nonzero.")
  in
  let frontier_arg =
    Arg.(
      value & opt int 256
      & info [ "frontier" ] ~docv:"S"
          ~doc:
            "Frontier cap of the streaming checker; past it the monitor \
             answers inconclusive (write-heavy mixes accumulate \
             order-ambiguous overlapping commits).")
  in
  let max_slots_arg =
    Arg.(
      value & opt int 50_000_000
      & info [ "max-slots" ] ~docv:"S"
          ~doc:
            "Scheduler slot budget; exceeding it reports out-of-slots \
             (crash survivors can spin forever on what the crashed process \
             holds).")
  in
  let rmr_arg =
    Arg.(
      value & flag
      & info [ "rmr" ]
          ~doc:"Account RMRs online in all three cost models (CC/WT, CC/WB, \
                DSM).")
  in
  let livelock_arg =
    Arg.(
      value & opt int 0
      & info [ "livelock-window" ] ~docv:"W"
          ~doc:
            "Arm the livelock detector across all client schedulers: \
             $(docv) consecutive aborted attempts with no commit anywhere \
             latch the run (schedulers stop issuing transactions instead \
             of spinning an open-loop backlog forever) and the starved \
             processes are reported. 0: off.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the per-TM results as a JSON cell array to $(docv).")
  in
  let run tms cm clients nprocs nobjs txs model dist hotspot write_ratio
      (ops_min, ops_max) seed retries sample frontier max_slots rmr
      livelock_window json faults =
    let cfg =
      {
        Load.clients;
        nprocs;
        nobjs;
        txs_per_client = txs;
        model;
        mix = { Load.dist; hotspot; write_ratio; ops_min; ops_max };
        seed;
        retries;
        sample;
        faults;
        rmr_models = (if rmr then Ptm_machine.Rmr.all_models else []);
        max_slots;
        livelock_window =
          (if livelock_window > 0 then Some livelock_window else None);
        monitor_frontier = frontier;
      }
    in
    Cli_common.or_exit2 "load" (fun () -> Load.validate cfg);
    let tms =
      List.map Ptm_tms.Registry.direct
        (Cli_common.apply_cm cm (resolve_tms tms))
    in
    Fmt.pr "load: %d clients / %d procs / %d objs, %d txs each, %a@." clients
      nprocs nobjs txs Load.pp_mix cfg.Load.mix;
    let violations = ref 0 in
    let results =
      List.map
        (fun (module T : Tm_intf.S) ->
          let r = Load.run (module T) cfg in
          Fmt.pr "%a@." Load.pp_result r;
          (match r.Load.verdict with
          | Some (Opacity_stream.Violation v) ->
              incr violations;
              Fmt.epr "%s: OPACITY VIOLATION %a@." r.Load.tm
                Opacity_stream.pp_violation v
          | _ -> ());
          (match r.Load.starved with
          | [] -> ()
          | ps ->
              Fmt.pr "%s: livelock latched, starved processes %a@." r.Load.tm
                Fmt.(list ~sep:comma int)
                ps);
          if r.Load.out_of_slots then
            Fmt.pr "%s: out of slots (budget %d)@." r.Load.tm max_slots;
          r)
        tms
    in
    (match json with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc "{\n  \"experiment\": \"load\",\n  \"cells\": [\n";
        output_string oc
          (String.concat ",\n" (List.map (json_cell cfg) results));
        output_string oc "\n  ]\n}\n";
        close_out oc;
        Fmt.pr "Wrote %s (%d cells).@." file (List.length results));
    let total =
      List.fold_left (fun acc r -> acc + r.Load.committed) 0 results
    in
    Fmt.pr "total: %d committed transactions across %d TMs@." total
      (List.length results);
    if !violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Serve a heavy-traffic transaction load (open- or closed-loop \
          clients, Zipfian/hot-key mixes) against one or all registry TMs, \
          with online abort-rate/throughput/RMR/wasted-work accounting and \
          a sampled streaming opacity monitor."
       ~man:
         [
           `S Manpage.s_examples;
           `P "Saturate norec and its 4-shard wrapper with a skewed mix:";
           `Pre
             "  ptm load --tm norec --tm norec.x4 --clients 256 --txs 100 \
              --mix zipf:0.9 --hot 4,0.3 --sample 0.1 --rmr";
           `P "Crash a process mid-run under open-loop arrivals:";
           `Pre
             "  ptm load --tm sgl.x4 --model open:200 --fault crash:1@5000 \
              --max-slots 2000000";
         ])
    Term.(
      const run $ tms_arg $ Cli_common.cm_arg $ clients_arg $ procs_arg
      $ objs_arg $ txs_arg $ model_arg $ dist_arg $ hot_arg $ write_ratio_arg
      $ ops_arg $ seed_arg $ retries_arg $ sample_arg $ frontier_arg
      $ max_slots_arg $ rmr_arg $ livelock_arg $ json_arg
      $ Cli_common.faults_arg)
