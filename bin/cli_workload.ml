(* The single-run subcommands: workload (random workload + offline check),
   trace (annotated execution dump) and run (fault-plan runs). One function
   per subcommand, each owning its argument parsing. *)

open Cmdliner
open Cli_common

let workload_cmd =
  let check_arg =
    Arg.(
      value
      & opt (enum [ ("opacity", `Opacity); ("strict", `Strict) ]) `Opacity
      & info [ "check" ] ~docv:"CRITERION" ~doc:"Consistency criterion.")
  in
  let run tm seed nprocs nobjs txs check =
    let w =
      or_exit2 "workload" (fun () ->
          Ptm_core.Workload.random ~seed ~nprocs ~nobjs ~txs_per_proc:txs
            ~ops_per_tx:3 ())
    in
    let o =
      Ptm_core.Runner.run (Ptm_tms.Registry.direct tm) ~retries:2
        ~schedule:(Ptm_core.Runner.Random_sched seed) w
    in
    Fmt.pr "%a@." Ptm_core.History.pp o.Ptm_core.Runner.history;
    Fmt.pr "commits %d, aborted attempts %d@." o.Ptm_core.Runner.commits
      o.Ptm_core.Runner.aborts;
    let verdict =
      match check with
      | `Opacity -> Ptm_core.Checker.opaque o.Ptm_core.Runner.history
      | `Strict ->
          Ptm_core.Checker.strictly_serializable o.Ptm_core.Runner.history
    in
    Fmt.pr "%a@." Ptm_core.Checker.pp_verdict verdict;
    match verdict with
    | Ptm_core.Checker.Serializable _ -> ()
    | _ -> exit 1
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Run a random workload on a TM and check the recorded history.")
    Term.(
      const run $ tm_arg $ seed_arg $ nprocs_arg $ nobjs_arg $ txs_arg
      $ check_arg)

let trace_cmd =
  let timeline_arg =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:"Render a per-process ASCII timeline instead of the event log.")
  in
  let run tm seed timeline =
    let w =
      Ptm_core.Workload.random ~seed ~nprocs:2 ~nobjs:2 ~txs_per_proc:1
        ~ops_per_tx:2 ()
    in
    let o =
      Ptm_core.Runner.run (Ptm_tms.Registry.direct tm)
        ~schedule:(Ptm_core.Runner.Random_sched seed) w
    in
    let trace = Ptm_machine.Machine.trace o.Ptm_core.Runner.machine in
    if timeline then Ptm_core.Timeline.pp Fmt.stdout trace
    else
      Ptm_machine.Trace.iter trace (fun entry ->
          Fmt.pr "%a@."
            (Ptm_machine.Trace.pp_entry ~pp_note:Ptm_core.History.pp_note)
            entry)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Dump the full annotated execution (every primitive application and \
          t-operation boundary) of a small workload.")
    Term.(const run $ tm_arg $ seed_arg $ timeline_arg)

let run_cmd =
  let retries_arg =
    Arg.(
      value & opt int 4
      & info [ "retries" ] ~docv:"R"
          ~doc:"Retries per aborted transaction attempt.")
  in
  let backoff_arg =
    Arg.(
      value
      & opt (some (t3 ~sep:',' int int int)) None
      & info [ "backoff" ] ~docv:"BASE,FACTOR,CAP"
          ~doc:
            "Exponential back-off between the $(b,--retries) retries, \
             realized as machine steps: before retry k, process p of n \
             waits min(CAP, d + p*d/n) slots, d = min(CAP, BASE*FACTOR^k) \
             (default: retry immediately).")
  in
  let livelock_arg =
    Arg.(
      value & opt int 0
      & info [ "livelock-window" ] ~docv:"W"
          ~doc:
            "Arm the livelock detector: $(docv) consecutive aborts with no \
             commit anywhere trip it, ending the run and naming the starved \
             processes (0: off).")
  in
  let max_steps_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-steps" ] ~docv:"S"
          ~doc:
            "Scheduler step budget; exceeding it reports out-of-steps \
             instead of failing (crashed lock holders make survivors spin).")
  in
  let monitor_arg =
    Arg.(
      value
      & opt
          (enum [ ("off", false); ("stream", true) ])
          false
      & info [ "monitor" ] ~docv:"MONITOR"
          ~doc:
            "Online opacity monitor: $(b,stream) attaches the streaming \
             TMS-automaton checker to the run's trace notes (the run itself \
             is unaffected) and reports its verdict; a violation exits \
             nonzero.")
  in
  let run tm cm seed nprocs nobjs txs faults retries backoff livelock_window
      max_steps monitor =
    let tm = Ptm_tms.Registry.direct (List.hd (Cli_common.apply_cm cm [ tm ])) in
    let w =
      or_exit2 "run" (fun () ->
          Ptm_core.Workload.random ~seed ~nprocs ~nobjs ~txs_per_proc:txs
            ~ops_per_tx:3 ())
    in
    let policy =
      match backoff with
      | None -> Ptm_core.Runner.Immediate
      | Some (base, factor, cap) ->
          Ptm_core.Runner.Backoff { base; factor; cap }
    in
    or_exit2 "run" (fun () -> Ptm_core.Runner.validate_policy policy);
    let o =
      Ptm_core.Runner.run tm ~retries ~policy ~faults
        ?livelock_window:(if livelock_window > 0 then Some livelock_window else None)
        ?max_steps ~monitor
        ~schedule:(Ptm_core.Runner.Random_sched seed) w
    in
    Fmt.pr "%a@." Ptm_core.History.pp o.Ptm_core.Runner.history;
    List.iter
      (fun f -> Fmt.pr "fault: %a@." Ptm_machine.Fault.pp f)
      faults;
    Fmt.pr "commits %d, aborted attempts %d (%d injected)@."
      o.Ptm_core.Runner.commits o.Ptm_core.Runner.aborts
      (List.length o.Ptm_core.Runner.history.Ptm_core.History.injected);
    if o.Ptm_core.Runner.out_of_steps then
      Fmt.pr "out of steps: survivors blocked (crashed peer holds objects?)@.";
    (match o.Ptm_core.Runner.starved with
    | [] -> ()
    | ps ->
        Fmt.pr "livelock: starved processes %a@."
          Fmt.(list ~sep:comma int)
          ps);
    let monitor_bad =
      match (o.Ptm_core.Runner.verdict, o.Ptm_core.Runner.monitor_stats) with
      | Some Ptm_core.Opacity_stream.Opaque, Some st ->
          Fmt.pr "monitor: opaque (%a)@." Ptm_core.Opacity_stream.pp_stats st;
          false
      | Some (Ptm_core.Opacity_stream.Violation v), _ ->
          Fmt.pr "monitor: VIOLATION %a@." Ptm_core.Opacity_stream.pp_violation
            v;
          true
      | Some (Ptm_core.Opacity_stream.Inconclusive why), _ ->
          Fmt.pr "monitor: inconclusive (%s)@." why;
          false
      | _ -> false
    in
    let verdict =
      Ptm_core.Checker.strictly_serializable o.Ptm_core.Runner.history
    in
    Fmt.pr "strict serializability: %a@." Ptm_core.Checker.pp_verdict verdict;
    if monitor_bad then exit 1;
    match verdict with
    | Ptm_core.Checker.Not_serializable _ -> exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a random workload under an explicit fault plan \
          (crash/stall/injected-abort), with optional back-off retries and \
          livelock detection, then check the surviving history."
       ~man:
         [
           `S Manpage.s_examples;
           `P "Crash process 0 at its 6th slot, stall process 1:";
           `Pre
             "  ptm run --tm tl2 --fault crash:0@6 --fault stall:1@2+8 \
              --livelock-window 32 --max-steps 20000";
           `P "Crash an obstruction-free owner mid-transaction and watch \
               peers steal through it:";
           `Pre "  ptm run --tm ofree --cm aggr --fault crash:0@6";
         ])
    Term.(
      const run $ tm_arg $ cm_arg $ seed_arg $ nprocs_arg $ nobjs_arg
      $ txs_arg $ faults_arg $ retries_arg $ backoff_arg $ livelock_arg
      $ max_steps_arg $ monitor_arg)
