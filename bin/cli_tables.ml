(* The table-producing subcommands: lemma2, thm3, tightness, rmr, props.
   One function per subcommand, each owning its argument parsing. *)

open Cmdliner
open Cli_common

let lemma2_cmd =
  let i_arg =
    Arg.(value & opt int 4 & info [ "i" ] ~docv:"I" ~doc:"Read-set size.")
  in
  let run tm i =
    Fmt.pr "%a@." Ptm_bounds.Lemma2.pp_report (Ptm_bounds.Lemma2.run (Ptm_tms.Registry.direct tm) ~i)
  in
  Cmd.v
    (Cmd.info "lemma2" ~doc:"Execute the Lemma 2 / Figure 1 construction.")
    Term.(const run $ tm_arg $ i_arg)

let thm3_cmd =
  let m_arg =
    Arg.(value & opt int 8 & info [ "m" ] ~docv:"M" ~doc:"Read-set size.")
  in
  let run tm m =
    Fmt.pr "%a@." Ptm_bounds.Theorem3.pp_report (Ptm_bounds.Theorem3.run (Ptm_tms.Registry.direct tm) ~m)
  in
  Cmd.v
    (Cmd.info "thm3"
       ~doc:
         "Run the Theorem 3 adversary: validation step complexity and \
          last-read space.")
    Term.(const run $ tm_arg $ m_arg)

let tightness_cmd =
  let m_arg =
    Arg.(value & opt int 32 & info [ "m" ] ~docv:"M" ~doc:"Read-set size.")
  in
  let run m =
    List.iter
      (fun tm ->
        Fmt.pr "%a@." Ptm_bounds.Tightness.pp_cost
          (Ptm_bounds.Tightness.read_only_cost tm ~m))
      Ptm_tms.Registry.all
  in
  Cmd.v
    (Cmd.info "tightness"
       ~doc:"Solo read-only transaction cost for every TM (Section 6).")
    Term.(const run $ m_arg)

let rmr_cmd =
  let locks_arg =
    Arg.(
      value
      & opt_all lock_conv Ptm_mutex.Mutex_registry.all
      & info [ "lock" ] ~docv:"LOCK" ~doc:"Lock(s) to measure (repeatable).")
  in
  let ns_arg =
    Arg.(
      value
      & opt_all int [ 2; 4; 8; 16 ]
      & info [ "n" ] ~docv:"N" ~doc:"Process count(s) (repeatable).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 2
      & info [ "rounds" ] ~docv:"R" ~doc:"Critical sections per process.")
  in
  let run locks ns rounds =
    let rows = Ptm_bounds.Theorem9.sweep ~locks ~ns ~rounds () in
    List.iter (fun r -> Fmt.pr "%a@." Ptm_bounds.Theorem9.pp_row r) rows
  in
  Cmd.v
    (Cmd.info "rmr"
       ~doc:"Measure mutex RMR totals in all three cost models (Theorem 9).")
    Term.(const run $ locks_arg $ ns_arg $ rounds_arg)

let props_cmd =
  let run () =
    Fmt.pr "%-14s %7s %9s %10s %11s %12s %9s@." "tm" "opaque" "weak-DAP"
      "invisible" "weak-invis" "progressive" "strongly";
    List.iter
      (fun (module T : Ptm_core.Tm_intf.S) ->
        let p = T.props in
        let b x = if x then "yes" else "no" in
        Fmt.pr "%-14s %7s %9s %10s %11s %12s %9s@." T.name
          (b p.Ptm_core.Tm_intf.opaque)
          (b p.Ptm_core.Tm_intf.weak_dap)
          (b p.Ptm_core.Tm_intf.invisible_reads)
          (b p.Ptm_core.Tm_intf.weak_invisible_reads)
          (b p.Ptm_core.Tm_intf.progressive)
          (b p.Ptm_core.Tm_intf.strongly_progressive))
      (Ptm_tms.Registry.all @ Ptm_tms.Registry.single_object);
    Fmt.pr
      "@.(claims are enforced by the test suite, not merely declared: run \
       `dune runtest`)@."
  in
  Cmd.v
    (Cmd.info "props"
       ~doc:"List every TM with its claimed properties (paper, Section 3).")
    Term.(const run $ const ())
