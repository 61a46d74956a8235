(* Converters and argument builders shared by the ptm subcommands (one
   module per subcommand family: Cli_tables, Cli_workload, Cli_explore,
   Cli_load; this module owns everything used from more than one). *)

open Cmdliner

(* The one TM converter: any registry name, resolved to its entry, which
   carries both forms ([Registry.direct] for the direct one, or
   [Runner.spawn] for the machine's). *)
let tm_conv =
  let parse s =
    match Ptm_tms.Registry.find s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown TM %S (try: %s)" s
               (String.concat ", " Ptm_tms.Registry.names)))
  in
  let print ppf (module T : Ptm_core.Tm_intf.Both) = Fmt.string ppf T.name in
  Arg.conv (parse, print)

let sink_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "off" -> Ok Ptm_machine.Trace.Off
    | "full" -> Ok Ptm_machine.Trace.Full
    | s when String.length s > 5 && String.sub s 0 5 = "ring:" -> (
        match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
        | Some n when n > 0 -> Ok (Ptm_machine.Trace.Ring n)
        | _ -> Error (`Msg "ring capacity must be a positive integer"))
    | _ -> Error (`Msg (Printf.sprintf "unknown trace sink %S (off|ring:N|full)" s))
  in
  let print ppf = function
    | Ptm_machine.Trace.Off -> Fmt.string ppf "off"
    | Ptm_machine.Trace.Ring n -> Fmt.pf ppf "ring:%d" n
    | Ptm_machine.Trace.Full -> Fmt.string ppf "full"
  in
  Arg.conv (parse, print)

let lock_conv =
  let parse s =
    match Ptm_mutex.Mutex_registry.by_name s with
    | Some l -> Ok l
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown lock %S (try: %s)" s
               (String.concat ", "
                  (List.map
                     (fun (module L : Ptm_mutex.Mutex_intf.S) -> L.name)
                     Ptm_mutex.Mutex_registry.all))))
  in
  let print ppf (module L : Ptm_mutex.Mutex_intf.S) = Fmt.string ppf L.name in
  Arg.conv (parse, print)

let fault_conv =
  let parse s =
    match Ptm_machine.Fault.parse s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Ptm_machine.Fault.pp)

let cm_conv =
  let parse s =
    match Ptm_core.Cm.kind_of_name (String.lowercase_ascii s) with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown contention manager %S (try: %s)" s
               (String.concat ", "
                  (List.map Ptm_core.Cm.kind_name Ptm_core.Cm.all_kinds))))
  in
  let print ppf k = Fmt.string ppf (Ptm_core.Cm.kind_name k) in
  Arg.conv (parse, print)

let cm_arg =
  Arg.(
    value
    & opt (some cm_conv) None
    & info [ "cm" ] ~docv:"CM"
        ~doc:
          "Contention manager for the obstruction-free TM family \
           ($(b,aggr)|$(b,polite)|$(b,karma)|$(b,ts)): replaces any \
           selected ofree variant with the one running $(docv). Rejected \
           when no selected TM is in the family (lock-based TMs have no \
           conflict-time choice to make).")

(* Apply --cm: swap every ofree-family TM for the variant under the given
   manager; error out if the flag can affect nothing. *)
let is_ofree name =
  name = "ofree"
  || (String.length name > 6 && String.sub name 0 6 = "ofree+")

let apply_cm cm tms =
  match cm with
  | None -> tms
  | Some kind ->
      let hit = ref false in
      let tms =
        List.map
          (fun ((module T : Ptm_core.Tm_intf.Both) as e) ->
            if is_ofree T.name then begin
              hit := true;
              Ptm_tms.Registry.ofree_with_cm kind
            end
            else e)
          tms
      in
      if not !hit then begin
        Fmt.epr
          "--cm only applies to the obstruction-free family (ofree*): none \
           selected@.";
        exit 2
      end;
      tms

(* Bad input: print the message and exit 2, like cmdliner's own usage
   errors. *)
let or_exit2 cmd f =
  try f () with Invalid_argument msg ->
    Fmt.epr "ptm %s: %s@." cmd msg;
    exit 2

let tm_arg =
  Arg.(
    value
    & opt tm_conv (module Ptm_tms.Dstm : Ptm_core.Tm_intf.Both)
    & info [ "tm" ] ~docv:"TM" ~doc:"TM implementation to drive.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let nprocs_arg =
  Arg.(value & opt int 3 & info [ "procs" ] ~docv:"N" ~doc:"Processes.")

let nobjs_arg =
  Arg.(value & opt int 4 & info [ "objs" ] ~docv:"K" ~doc:"T-objects.")

let txs_arg =
  Arg.(
    value & opt int 3
    & info [ "txs" ] ~docv:"T" ~doc:"Transactions per process.")

let faults_arg =
  Arg.(
    value & opt_all fault_conv []
    & info [ "faults"; "fault" ] ~docv:"SPEC"
        ~doc:
          "Fault to inject (repeatable): $(b,crash:P@K) crash-stops \
           process P at its K-th scheduled slot, $(b,stall:P@K+D) parks \
           it for D slots, $(b,abort:P@K) spuriously aborts its K-th \
           t-operation before the TM sees it.")
