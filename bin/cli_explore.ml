(* The model-checking subcommand: explore. Owns its argument parsing; a
   --tm fixture runs the registry TM's direct instance on the Fibers engine
   and its step instance on the Steps engine. *)

open Cmdliner
open Cli_common

let explore_cmd =
  let lock_arg =
    Arg.(
      value
      & opt lock_conv (module Ptm_mutex.Tas : Ptm_mutex.Mutex_intf.S)
      & info [ "lock" ] ~docv:"LOCK" ~doc:"Lock to model-check.")
  in
  let steps_arg =
    Arg.(
      value & opt int 22
      & info [ "max-steps" ] ~docv:"D" ~doc:"Per-path step bound.")
  in
  let procs_arg =
    Arg.(
      value & opt int 2
      & info [ "procs" ] ~docv:"N" ~doc:"Number of contending processes.")
  in
  let paths_arg =
    Arg.(
      value & opt int 4_000_000
      & info [ "max-paths" ] ~docv:"P"
          ~doc:
            "Leaf budget. On exhaustion partial stats are reported with \
             'exhausted'.")
  in
  let reduce_arg =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:
            "Use sleep-set + persistent-set partial-order reduction (DPOR) \
             instead of the naive enumeration.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"J"
          ~doc:"Split the root branches across $(docv) parallel domains.")
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Run both the naive and the reduced search and report the \
             reduction ratio.")
  in
  let progress_arg =
    Arg.(
      value & opt int 0
      & info [ "progress" ] ~docv:"K"
          ~doc:"Print a progress line to stderr every $(docv) leaves (0: off).")
  in
  let trace_arg =
    Arg.(
      value
      & opt sink_conv Ptm_machine.Trace.Off
      & info [ "trace" ] ~docv:"SINK"
          ~doc:
            "Trace sink for the explored machines: $(b,off) (allocation-free \
             hot path, the default — verdicts here are crash-based and need \
             no trace), $(b,ring:N) (keep the last N entries) or $(b,full).")
  in
  let crashes_arg =
    Arg.(
      value & opt int 0
      & info [ "crashes" ] ~docv:"K"
          ~doc:
            "Per-path crash budget: at every branching node with budget \
             left, add one crash-stop branch per live process (default 0: \
             no fault branches, bit-identical to the fault-free search).")
  in
  let stalls_arg =
    Arg.(
      value & opt int 0
      & info [ "stalls" ] ~docv:"K"
          ~doc:
            "Per-path stall budget: add one stall branch per live \
             not-already-stalled process at each branching node (default 0).")
  in
  let stall_steps_arg =
    Arg.(
      value & opt int 3
      & info [ "stall-steps" ] ~docv:"D"
          ~doc:"Scheduled slots each injected stall parks its process for.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Journal frontier progress to $(docv) (crash-safe, flushed per \
             finished subtree task) so a killed exploration can be resumed.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the $(b,--checkpoint) journal: finished tasks are \
             restored from disk, only the rest are explored.")
  in
  let tm_arg =
    Arg.(
      value
      & opt (some Cli_common.tm_conv) None
      & info [ "tm" ] ~docv:"TM"
          ~doc:
            "Model-check a registry TM (one read-write transaction per \
             process) instead of a lock; see $(b,--engine).")
  in
  let engine_arg =
    Arg.(
      value
      & opt
          (enum [ ("fibers", `Fibers); ("steps", `Steps); ("both", `Both) ])
          `Steps
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Engine, and with it program form, for the $(b,--tm) fixture: \
             $(b,steps) (the default: the TM's step instance; the search \
             saves each branching node and restores it for every further \
             branch), $(b,fibers) (the direct instance, the text every \
             load run executes, in effect-handler processes; continuations \
             are one-shot, so every further branch replays its prefix on a \
             restarted machine), or $(b,both) (run both and require the \
             same search: equal paths, cut, pruned, violations, witness, \
             fault branches and budget outcome).")
  in
  let check_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("stream", `Stream); ("offline", `Offline); ("both", `Both) ]))
          None
      & info [ "check" ] ~docv:"CHECKER"
          ~doc:
            "Check every leaf's TM history for opacity (requires $(b,--tm); \
             forces trace retention): $(b,stream) (the streaming \
             TMS-automaton checker), $(b,offline) (the serialization-search \
             checker), or $(b,both) (run both and require per-leaf \
             agreement; any disagreement is a violation).")
  in
  let run (module L : Ptm_mutex.Mutex_intf.S) max_steps nprocs max_paths
      reduce domains compare progress_every trace crashes stalls stall_steps
      checkpoint_file resume tm cm engine check =
    if nprocs > 62 then begin
      Fmt.epr "ptm explore: at most 62 processes (the DPOR sets are int \
               bitmasks), not %d@." nprocs;
      exit 2
    end;
    let tm = Option.map (fun e -> List.hd (Cli_common.apply_cm cm [ e ])) tm in
    (if check <> None && tm = None then begin
       Fmt.epr "--check requires a --tm fixture (lock leaves have no TM \
                history)@.";
       exit 2
     end);
    let trace = if check <> None then Ptm_machine.Trace.Full else trace in
    let checked = Atomic.make 0
    and disagreements = Atomic.make 0
    and undecided = Atomic.make 0 in
    let final =
      Option.map
        (fun mode m ->
          Atomic.incr checked;
          let entries =
            Ptm_machine.Trace.entries (Ptm_machine.Machine.trace m)
          in
          match mode with
          | `Stream -> (
              match fst (Ptm_core.Opacity_stream.check_entries entries) with
              | Ptm_core.Opacity_stream.Opaque -> true
              | Ptm_core.Opacity_stream.Inconclusive _ ->
                  Atomic.incr undecided;
                  true
              | Ptm_core.Opacity_stream.Violation _ as v ->
                  Fmt.epr "leaf opacity violation: %a@."
                    Ptm_core.Opacity_stream.pp_verdict v;
                  false)
          | `Offline -> (
              match
                Ptm_core.Checker.opaque (Ptm_core.History.of_entries entries)
              with
              | Ptm_core.Checker.Serializable _ -> true
              | Ptm_core.Checker.Dont_know _ ->
                  Atomic.incr undecided;
                  true
              | Ptm_core.Checker.Not_serializable _ as v ->
                  Fmt.epr "leaf opacity violation: %a@."
                    Ptm_core.Checker.pp_verdict v;
                  false)
          | `Both -> (
              let sv = fst (Ptm_core.Opacity_stream.check_entries entries) in
              let ov =
                Ptm_core.Checker.opaque (Ptm_core.History.of_entries entries)
              in
              match (ov, sv) with
              | Ptm_core.Checker.Dont_know _, _
              | _, Ptm_core.Opacity_stream.Inconclusive _ ->
                  Atomic.incr undecided;
                  true
              | ( Ptm_core.Checker.Serializable _,
                  Ptm_core.Opacity_stream.Opaque ) ->
                  true
              | ( Ptm_core.Checker.Not_serializable _,
                  Ptm_core.Opacity_stream.Violation _ ) ->
                  (* the checkers agree the leaf is broken *)
                  Fmt.epr "leaf opacity violation (both checkers): %a@."
                    Ptm_core.Opacity_stream.pp_verdict sv;
                  false
              | _ ->
                  Atomic.incr disagreements;
                  Fmt.epr
                    "checker DISAGREEMENT on a leaf: offline=%a stream=%a@."
                    Ptm_core.Checker.pp_verdict ov
                    Ptm_core.Opacity_stream.pp_verdict sv;
                  false))
        check
    in
    let report_check () =
      if check <> None then
        Fmt.pr
          "opacity: %d leaves checked, %d disagreements, %d undecided@."
          (Atomic.get checked)
          (Atomic.get disagreements)
          (Atomic.get undecided)
    in
    let mk = Ptm_mutex.Harness.explored (module L) ~trace ~nprocs in
    (* TM fixture: each process runs one instrumented read-write
       transaction (write own object, read the neighbour's; a single-object
       TM writes and reads object 0), retried once, in the engine's form. *)
    let mk_tm ((module T : Ptm_core.Tm_intf.Both) as tm) eng () =
      let single =
        List.exists
          (fun (module S : Ptm_core.Tm_intf.Both) -> S.name = T.name)
          Ptm_tms.Registry.single
      in
      let tx pid =
        let w, r = if single then (0, 0) else (pid mod 2, (pid + 1) mod 2) in
        [ [ Ptm_core.Workload.W (w, pid + 1); Ptm_core.Workload.R r ] ]
      in
      let m = Ptm_machine.Machine.create ~trace ~engine:eng ~nprocs () in
      Ptm_core.Runner.spawn m tm ~retries:1
        { Ptm_core.Workload.nobjs = 2; procs = Array.init nprocs tx };
      m
    in
    let progress =
      if progress_every <= 0 then None
      else
        Some
          (fun (s : Ptm_machine.Explore.stats) ->
            Fmt.epr "... %d paths, %d cut, %d pruned@." s.paths s.cut s.pruned)
    in
    let search ~mk mode =
      Ptm_machine.Explore.run ~mk ?final ~max_steps ~max_paths ~mode ~domains
        ~crashes ~stalls ~stall_steps ?checkpoint_file ~resume ?progress
        ~progress_every:(max 1 progress_every)
        ()
    in
    let mode =
      if reduce then Ptm_machine.Explore.Dpor else Ptm_machine.Explore.Naive
    in
    try
      match tm with
      | Some ((module T : Ptm_core.Tm_intf.Both) as tmod) -> begin
          let name eng =
            Printf.sprintf "%s/%s" T.name
              (match eng with
              | Ptm_machine.Machine.Fibers -> "fibers"
              | Ptm_machine.Machine.Steps -> "steps")
          in
          let search_tm eng =
            search ~mk:(mk_tm tmod eng) mode
          in
          match engine with
          | `Fibers ->
              let s = search_tm Ptm_machine.Machine.Fibers in
              Fmt.pr "%s: %a@." (name Ptm_machine.Machine.Fibers)
                Ptm_machine.Explore.pp_stats s;
              report_check ();
              if s.Ptm_machine.Explore.violations > 0 then exit 1
          | `Steps ->
              let s = search_tm Ptm_machine.Machine.Steps in
              Fmt.pr "%s: %a@." (name Ptm_machine.Machine.Steps)
                Ptm_machine.Explore.pp_stats s;
              report_check ();
              if s.Ptm_machine.Explore.violations > 0 then exit 1
          | `Both ->
              let a = search_tm Ptm_machine.Machine.Fibers in
              let b = search_tm Ptm_machine.Machine.Steps in
              Fmt.pr "%s: %a@." (name Ptm_machine.Machine.Fibers)
                Ptm_machine.Explore.pp_stats a;
              Fmt.pr "%s: %a@." (name Ptm_machine.Machine.Steps)
                Ptm_machine.Explore.pp_stats b;
              report_check ();
              if not (Ptm_machine.Explore.same_search a b) then begin
                Fmt.epr "engines disagree: the direct and step instances must \
                         search the same tree@.";
                exit 1
              end;
              if a.Ptm_machine.Explore.violations > 0 then exit 1
        end
      | None ->
          if compare then begin
            let naive = search ~mk Ptm_machine.Explore.Naive in
            let reduced = search ~mk Ptm_machine.Explore.Dpor in
            Fmt.pr "%s naive: %a@." L.name Ptm_machine.Explore.pp_stats naive;
            Fmt.pr "%s dpor:  %a@." L.name Ptm_machine.Explore.pp_stats reduced;
            Fmt.pr "reduction: %.1fx fewer paths@."
              (Ptm_machine.Explore.reduction_ratio ~naive ~reduced);
            if naive.Ptm_machine.Explore.violations > 0
               || reduced.Ptm_machine.Explore.violations > 0
            then exit 1
          end
          else begin
            let s = search ~mk mode in
            Fmt.pr "%s: %a@." L.name Ptm_machine.Explore.pp_stats s;
            if s.Ptm_machine.Explore.violations > 0 then exit 1
          end
    with Ptm_machine.Machine.Invariant { pid; slot; seq; what } ->
      Fmt.epr
        "machine invariant violated: %s (pid %d, scheduled slot %d, schedule \
         index %d)@."
        what pid slot seq;
      exit 2
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively model-check a lock's mutual exclusion over every \
          schedule up to a step bound, optionally with partial-order \
          reduction and parallel domains.")
    Term.(
      const run $ lock_arg $ steps_arg $ procs_arg $ paths_arg $ reduce_arg
      $ domains_arg $ compare_arg $ progress_arg $ trace_arg $ crashes_arg
      $ stalls_arg $ stall_steps_arg
      $ checkpoint_arg $ resume_arg $ tm_arg $ Cli_common.cm_arg
      $ engine_arg $ check_arg)
