(* Engine-differential tests. Each engine runs one program form, so the
   engines are compared on the two instances of one program text: the
   direct instance on Fibers against the step instance on Steps, for every
   registry TM's fixture (with and without fixed fault plans), for random
   raw programs with random schedules and fault plans (QCheck), and for
   whole explorations, where the Fibers search replays prefixes and the
   Steps search restores saved nodes. Also: a machine refuses a program of
   the other form, the OSTM deep-helping regression (chains far beyond the
   old recursion guard), the typed Bounds_error raised when a lower-bound
   construction diverges, checkpoint/resume crash-safety (including a real
   [kill -9] mid-exploration), and frontier determinism across domain
   counts. *)

open Ptm_machine
open Ptm_core
open Ptm_mutex

module Sm = Proc.Step

let ( let* ) = Sm.bind
let of_q t = QCheck_alcotest.to_alcotest t

(* ------------------------------------------------------------------ *)
(* Machine fingerprints                                                *)
(* ------------------------------------------------------------------ *)

let status_tag m pid =
  match Machine.status m pid with
  | Machine.Idle -> "idle"
  | Machine.Runnable -> "runnable"
  | Machine.Terminated -> "terminated"
  | Machine.Halted -> "halted"
  | Machine.Crashed e -> "crashed: " ^ Printexc.to_string e

(* Everything an execution observably produced: the full trace (memory
   events and notes), per-process step and slot counters, final statuses.
   Two machines with equal fingerprints ran bit-identical executions. *)
let fingerprint ~nprocs m =
  ( Trace.entries (Machine.trace m),
    List.init nprocs (Machine.steps_of m),
    List.init nprocs (Machine.scheds_of m),
    List.init nprocs (status_tag m) )

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(* The canonical 2-process TM workload (as in test_explore): each process
   writes one object and reads the other, transactionally, retried once —
   or, for a single-object TM, writes and reads object 0. The TM runs in
   the engine's form, under the fault plan [faults] (none by default). *)
let single_object name =
  List.exists
    (fun (module T : Tm_intf.Both) -> String.equal T.name name)
    Ptm_tms.Registry.single

let objs name pid =
  if single_object name then (0, 0) else (pid mod 2, (pid + 1) mod 2)

let mk_tm ?(faults = []) ((module T : Tm_intf.Both) as tm) ~engine ~trace () =
  let m = Machine.create ~trace ~engine ~nprocs:2 () in
  Machine.set_faults m faults;
  let tx pid =
    let w, r = objs T.name pid in
    [ [ Workload.W (w, pid + 1); Workload.R r ] ]
  in
  Runner.spawn m tm ~retries:1 { Workload.nobjs = 2; procs = Array.init 2 tx };
  m

let schedules ?max_steps () =
  ("round-robin", fun m -> Sched.round_robin ?max_steps m)
  :: List.map
       (fun seed ->
         ( Printf.sprintf "random seed %d" seed,
           fun m -> Sched.random ~seed ?max_steps m ))
       [ 1; 7; 42 ]

(* ------------------------------------------------------------------ *)
(* Engine differentials                                                *)
(* ------------------------------------------------------------------ *)

(* The engine is the machine's program form: a Fibers machine refuses a
   step program and a Steps machine a direct one, and the refusal installs
   nothing. *)
let test_wrong_form_rejected () =
  let refused what spawn =
    match spawn () with
    | () -> Alcotest.failf "%s was spawned" what
    | exception Invalid_argument _ -> ()
  in
  let fibers = Machine.create ~nprocs:1 ()
  and steps = Machine.create ~engine:Machine.Steps ~nprocs:1 () in
  refused "a step program on a Fibers machine" (fun () ->
      Machine.spawn_step fibers 0 (Sm.return ()));
  refused "a direct program on a Steps machine" (fun () ->
      Machine.spawn steps 0 ignore);
  Machine.spawn fibers 0 ignore;
  Machine.spawn_step steps 0 (Sm.return ());
  Alcotest.(check (list bool))
    "each machine still runs its own form; only Steps restores"
    [ true; true; false; true ]
    [
      Machine.all_done fibers; Machine.all_done steps;
      Machine.restorable fibers; Machine.restorable steps;
    ]

(* The two instances of each registry TM's one program text, all 21 names
   under four schedules: the direct instance on Fibers and the step
   instance on Steps run bit-identical executions. *)
let test_step_vs_direct () =
  Alcotest.(check int)
    "21 registry names, each once" 21
    (List.length (List.sort_uniq compare Ptm_tms.Registry.names));
  List.iter
    (fun ((module T : Tm_intf.Both) as tm) ->
      List.iter
        (fun (sname, sched) ->
          let run engine =
            let m = mk_tm tm ~engine ~trace:Trace.Full () in
            sched m;
            Machine.check_crashes m;
            fingerprint ~nprocs:2 m
          in
          Alcotest.(check bool)
            (T.name ^ " under " ^ sname ^ ": step form == direct form")
            true
            (run Machine.Fibers = run Machine.Steps))
        (schedules ()))
    Ptm_tms.Registry.entries

(* The same fixtures under fixed fault plans: process 0 crash-stops at its
   second slot, process 1 stalls for four slots from its second, or process
   0's first t-operation is aborted before it reaches the TM. A survivor
   may spin on a word the crashed process holds, so each run stops at a
   step budget, and the two engines must reach it alike. *)
let fixture_faults =
  [
    ("crash p0@1", [ Fault.crash ~pid:0 ~at:1 ]);
    ("stall p1@1+4", [ Fault.stall ~pid:1 ~at:1 ~steps:4 ]);
    ("abort p0 op 0", [ Fault.abort ~pid:0 ~op:0 ]);
  ]

let test_fixture_differential () =
  List.iter
    (fun ((module T : Tm_intf.Both) as tm) ->
      List.iter
        (fun (fname, faults) ->
          List.iter
            (fun (sname, sched) ->
              let run engine =
                let m = mk_tm ~faults tm ~engine ~trace:Trace.Full () in
                (try sched m with Sched.Out_of_steps -> ());
                Machine.check_crashes m;
                fingerprint ~nprocs:2 m
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s under %s, %s: engines bit-identical"
                   T.name sname fname)
                true
                (run Machine.Fibers = run Machine.Steps))
            (schedules ~max_steps:3_000 ()))
        fixture_faults)
    Ptm_tms.Registry.entries

(* The five TMs first written in step form explore their whole tree under
   the default leaf budget, as they always have; the other sixteen names
   stop at 20,000 leaves per search, which keeps the naive trees of the
   sharded and contention-managed TMs to a fraction of a second. *)
let full_budget = [ "undolog"; "ostm"; "norec"; "sgl"; "ofree" ]

(* The Fibers search replays prefixes and the Steps search restores saved
   nodes, so [replays] and [steps] differ by design; the search itself
   must not. *)
let test_explore_differential () =
  List.iter
    (fun ((module T : Tm_intf.Both) as tm) ->
      let max_paths =
        if List.mem T.name full_budget then None else Some 20_000
      in
      List.iter
        (fun (mname, mode) ->
          let stats engine =
            Explore.run
              ~mk:(mk_tm tm ~engine ~trace:Trace.Off)
              ~max_steps:32 ?max_paths ~mode ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: explorer stats equal across engines"
               T.name mname)
            true
            (Explore.same_search (stats Machine.Fibers) (stats Machine.Steps)))
        [ ("naive", Explore.Naive); ("dpor", Explore.Dpor) ])
    Ptm_tms.Registry.entries

(* ------------------------------------------------------------------ *)
(* Restore vs replay                                                   *)
(* ------------------------------------------------------------------ *)

(* A complete leaf, as a digest: per-pid steps, slots and statuses, the
   retained trace entries, the trace length and every memory cell. *)
let leaf_digest m =
  let mem = Machine.memory m in
  Digest.string
    (Marshal.to_string
       ( fingerprint ~nprocs:(Machine.nprocs m) m,
         Trace.length (Machine.trace m),
         List.init (Memory.size mem) (Memory.peek mem) )
       [ Marshal.No_sharing ])

(* Explore [mk engine] and collect the digest of every complete leaf, in
   leaf order. *)
let explore_leaves ?(max_steps = 24) ?(max_paths = 300) ?(crashes = 0)
    ?(stalls = 0) ~mode mk engine =
  let leaves = ref [] in
  let final m =
    leaves := leaf_digest m :: !leaves;
    true
  in
  let s =
    Explore.run ~mk:(mk engine) ~final ~max_steps ~max_paths ~mode ~crashes
      ~stalls ~stall_steps:2 ()
  in
  (s, List.rev !leaves)

(* The Fibers engine replays every further branch of the direct instance
   from a restarted machine; the Steps engine restores the node of the
   step instance it saved. Same search, same leaves, leaf for leaf. *)
let restore_agrees ?max_steps ?max_paths ?crashes ?stalls ~mode mk =
  let sf, lf =
    explore_leaves ?max_steps ?max_paths ?crashes ?stalls ~mode mk
      Machine.Fibers
  in
  let ss, ls =
    explore_leaves ?max_steps ?max_paths ?crashes ?stalls ~mode mk
      Machine.Steps
  in
  Explore.same_search sf ss && lf = ls && ss.Explore.replays = 0

let sinks = [ ("off", Trace.Off); ("full", Trace.Full) ]

let test_restore_vs_replay () =
  List.iter
    (fun ((module T : Tm_intf.Both) as tm) ->
      List.iter
        (fun (mname, mode) ->
          List.iter
            (fun (crashes, stalls) ->
              List.iter
                (fun (sname, trace) ->
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "%s/%s crashes %d stalls %d trace %s: restore == replay"
                       T.name mname crashes stalls sname)
                    true
                    (restore_agrees ~crashes ~stalls ~mode (fun engine () ->
                         mk_tm tm ~engine ~trace ())))
                sinks)
            [ (0, 0); (1, 0); (0, 1); (1, 1) ])
        [ ("naive", Explore.Naive); ("dpor", Explore.Dpor) ])
    Ptm_tms.Registry.entries

(* A restored Ring keeps the node's entries that later branches did not
   overwrite, so a leaf may retain fewer entries than a replayed one would;
   what it retains is the tail of the leaf's full trace, and the search
   does not depend on the sink. *)
let test_restore_ring_suffix () =
  let suffix a b =
    let la = List.length a and lb = List.length b in
    la <= lb && a = List.filteri (fun i _ -> i >= lb - la) b
  in
  List.iter
    (fun ((module T : Tm_intf.Both) as tm) ->
      let run trace =
        let leaves = ref [] in
        let final m =
          leaves := Trace.entries (Machine.trace m) :: !leaves;
          true
        in
        let s =
          Explore.run
            ~mk:(mk_tm tm ~engine:Machine.Steps ~trace)
            ~final ~max_steps:24 ~max_paths:300 ~mode:Explore.Dpor ~crashes:1
            ()
        in
        (s, List.rev !leaves)
      in
      let sr, lr = run (Trace.Ring 5) and sf, lf = run Trace.Full in
      Alcotest.(check bool)
        (T.name ^ ": Ring and Full searches identical") true (sr = sf);
      Alcotest.(check bool)
        (T.name ^ ": every Ring leaf is a tail of its Full leaf") true
        (List.for_all2 suffix lr lf))
    Ptm_tms.Registry.entries

(* ------------------------------------------------------------------ *)
(* Raw programs, written once over the program signature               *)
(* ------------------------------------------------------------------ *)

type op =
  | R of int
  | W of int * int
  | C of int * int * int
  | F of int * int
  | Pause

let pp_op = function
  | R a -> Printf.sprintf "r%d" a
  | W (a, v) -> Printf.sprintf "w%d=%d" a v
  | C (a, e, d) -> Printf.sprintf "cas%d:%d>%d" a e d
  | F (a, d) -> Printf.sprintf "faa%d+%d" a d
  | Pause -> "p"

module Raw (P : Proc.S) = struct
  let ( let* ) = P.bind

  let rec run addrs = function
    | [] -> P.return ()
    | op :: rest ->
        let* () =
          match op with
          | R a -> P.map ignore (P.read addrs.(a))
          | W (a, v) -> P.write addrs.(a) (Value.Int v)
          | C (a, e, d) ->
              P.map ignore
                (P.cas addrs.(a) ~expected:(Value.Int e) ~desired:(Value.Int d))
          | F (a, d) -> P.map ignore (P.faa addrs.(a) d)
          | Pause -> P.pause ()
        in
        run addrs rest

  (* Read [x] twice, then write how many reads there were, counted in a
     plain [ref] ([leaky]) or in a var. *)
  let count_reads ~leaky x =
    P.suspend @@ fun () ->
    if leaky then begin
      let count = ref 0 in
      let* _ = P.read x in
      incr count;
      let* _ = P.read x in
      incr count;
      P.write x (Value.Int !count)
    end
    else begin
      let count = P.var 0 in
      let* _ = P.read x in
      P.set count (P.get count + 1);
      let* _ = P.read x in
      P.set count (P.get count + 1);
      P.write x (Value.Int (P.get count))
    end
end

module Raw_direct = Raw (Proc.Direct)
module Raw_step = Raw (Proc.Step)

(* Spawn a raw program's instance for the machine's engine. *)
let spawn_raw m pid ~direct ~step =
  match Machine.engine m with
  | Machine.Fibers -> Machine.spawn m pid direct
  | Machine.Steps -> Machine.spawn_step m pid step

(* A program that keeps host state in a plain [ref] written after a wait
   breaks the var contract: a restored node resumes closures whose ref
   still holds a sibling branch's writes, so the leaves disagree with the
   replaying search, which re-runs the program and its [ref] from
   scratch. *)
let mk_counting ~leaky engine () =
  let m = Machine.create ~trace:Trace.Full ~engine ~nprocs:2 () in
  let x = Machine.alloc m ~name:"x" (Value.Int 0) in
  for pid = 0 to 1 do
    spawn_raw m pid
      ~direct:(fun () -> Raw_direct.count_reads ~leaky x)
      ~step:(Raw_step.count_reads ~leaky x)
  done;
  m

let test_contract_breach_detected () =
  Alcotest.(check bool) "a ref written after a wait: restore <> replay" false
    (restore_agrees ~mode:Explore.Naive (mk_counting ~leaky:true));
  Alcotest.(check bool) "the same program over a var: restore == replay" true
    (restore_agrees ~mode:Explore.Naive (mk_counting ~leaky:false))

let trail_idle () =
  (not (Proc.Trail.active ())) && Proc.Trail.length () = 0

(* The trail is on only while a restoring search runs, and empty after it
   returns, trips its budget or unwinds. *)
let test_trail_scoping () =
  let tm = Option.get (Ptm_tms.Registry.find "norec") in
  let mk engine () = mk_tm tm ~engine ~trace:Trace.Off () in
  let on_during = ref [] in
  let final m =
    on_during := (Machine.restorable m, Proc.Trail.active ()) :: !on_during;
    true
  in
  List.iter
    (fun engine ->
      let s = Explore.run ~mk:(mk engine) ~final ~max_steps:32 () in
      Alcotest.(check bool) "explored" true (s.Explore.paths > 0);
      Alcotest.(check bool) "idle after a complete search" true (trail_idle ()))
    [ Machine.Fibers; Machine.Steps ];
  Alcotest.(check bool) "on exactly during restoring searches" true
    (List.for_all (fun (r, a) -> r = a) !on_during
    && List.mem (true, true) !on_during);
  let s = Explore.run ~mk:(mk Machine.Steps) ~max_steps:32 ~max_paths:5 () in
  Alcotest.(check bool) "budget tripped" true s.Explore.exhausted;
  Alcotest.(check bool) "idle after a budget trip" true (trail_idle ());
  (match
     Explore.run ~mk:(mk Machine.Steps)
       ~final:(fun _ -> failwith "final raised")
       ~max_steps:32 ()
   with
  | _ -> Alcotest.fail "the exception from final was swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "idle after final raised" true (trail_idle ());
  (* a journal runs the frontier search in this domain (spawning a domain
     here would forbid the kill -9 test's fork) *)
  let journaled engine =
    let f = Filename.temp_file "ptm-trail" ".ckpt" in
    Sys.remove f;
    let s =
      Explore.run ~mk:(mk engine) ~max_steps:32 ~mode:Explore.Dpor
        ~checkpoint_file:f ()
    in
    Sys.remove f;
    s
  in
  let s = journaled Machine.Steps in
  Alcotest.(check bool) "frontier search explored" true (s.Explore.paths > 0);
  Alcotest.(check bool) "idle after a frontier search" true (trail_idle ());
  Alcotest.(check bool) "frontier tasks: restore and replay search alike" true
    (Explore.same_search s (journaled Machine.Fibers));
  let m = mk Machine.Steps () in
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.(check bool) "a run outside the explorer logs nothing" true
    (trail_idle ())


(* ------------------------------------------------------------------ *)
(* Random raw programs (QCheck)                                        *)
(* ------------------------------------------------------------------ *)

let mk_random_case ~engine (ops0, ops1, faults) =
  let m = Machine.create ~trace:Trace.Full ~engine ~nprocs:2 () in
  let addrs =
    Array.init 3 (fun i ->
        Machine.alloc m ~name:(Printf.sprintf "x%d" i) (Value.Int 0))
  in
  Machine.set_faults m faults;
  List.iteri
    (fun pid ops ->
      spawn_raw m pid
        ~direct:(fun () -> Raw_direct.run addrs ops)
        ~step:(Raw_step.run addrs ops))
    [ ops0; ops1 ];
  m

let gen_op =
  QCheck2.Gen.(
    let addr = int_bound 2 in
    frequency
      [
        (3, map (fun a -> R a) addr);
        (3, map2 (fun a v -> W (a, v)) addr (int_bound 9));
        (2, map3 (fun a e d -> C (a, e, d)) addr (int_bound 3) (int_bound 9));
        (1, map2 (fun a d -> F (a, d)) addr (int_range 1 3));
        (1, return Pause);
      ])

let pp_ops ops = String.concat ";" (List.map pp_op ops)

(* A crash of process 0 or a stall of process 1, at a slot up to [at]. *)
let gen_faults ~at ~steps =
  QCheck2.Gen.(
    oneof
      [
        return [];
        map (fun at -> [ Fault.crash ~pid:0 ~at ]) (int_bound at);
        map2
          (fun at steps -> [ Fault.stall ~pid:1 ~at ~steps ])
          (int_bound at) (int_range 1 steps);
      ])

let qcheck_engine_differential =
  let gen =
    QCheck2.Gen.(
      let prog = list_size (int_bound 8) gen_op in
      pair (pair prog prog) (pair (gen_faults ~at:6 ~steps:4) (int_bound 9999)))
  in
  let print ((ops0, ops1), (faults, seed)) =
    Printf.sprintf "p0=[%s] p1=[%s] faults=%d seed=%d" (pp_ops ops0)
      (pp_ops ops1) (List.length faults) seed
  in
  QCheck2.Test.make ~count:200 ~print
    ~name:"random programs + faults: Steps == Fibers" gen
    (fun ((ops0, ops1), (faults, seed)) ->
      let run engine =
        let m = mk_random_case ~engine (ops0, ops1, faults) in
        Sched.random ~seed m;
        fingerprint ~nprocs:2 m
      in
      run Machine.Fibers = run Machine.Steps)

(* The same random programs, explored: the Steps search restores saved
   nodes, the Fibers search replays, and the two must agree leaf for leaf,
   fault plans and fault budgets included. *)
let qcheck_restore_differential =
  let gen =
    QCheck2.Gen.(
      let prog = list_size (int_bound 6) gen_op in
      pair (pair prog prog)
        (pair (gen_faults ~at:4 ~steps:3)
           (pair bool (pair (int_bound 1) (int_bound 1)))))
  in
  let print ((ops0, ops1), (faults, (dpor, (crashes, stalls)))) =
    Printf.sprintf "p0=[%s] p1=[%s] faults=%d %s crashes=%d stalls=%d"
      (pp_ops ops0) (pp_ops ops1) (List.length faults)
      (if dpor then "dpor" else "naive")
      crashes stalls
  in
  QCheck2.Test.make ~count:150 ~print
    ~name:"random programs + faults explored: restore == replay" gen
    (fun ((ops0, ops1), (faults, (dpor, (crashes, stalls)))) ->
      restore_agrees ~max_steps:16 ~max_paths:400 ~crashes ~stalls
        ~mode:(if dpor then Explore.Dpor else Explore.Naive)
        (fun engine () -> mk_random_case ~engine (ops0, ops1, faults)))

(* ------------------------------------------------------------------ *)
(* Direct instance vs step instance, whole registry (QCheck)           *)
(* ------------------------------------------------------------------ *)

let run_instance e ~engine (w : Workload.t) faults seed =
  let nprocs = Array.length w.procs in
  let m = Machine.create ~trace:Trace.Full ~engine ~nprocs () in
  Machine.set_faults m faults;
  Runner.spawn m e ~retries:1 w;
  (try Sched.random ~seed ~max_steps:3_000 m with Sched.Out_of_steps -> ());
  fingerprint ~nprocs m

let qcheck_instances_differential =
  let entries = Array.of_list Ptm_tms.Registry.entries in
  let gen =
    QCheck2.Gen.(
      let op = function
        | true -> map2 (fun x v -> Workload.W (x, v)) (int_bound 2) (int_range 1 9)
        | false -> map (fun x -> Workload.R x) (int_bound 2)
      in
      let tx = list_size (int_range 1 3) (bool >>= op) in
      let procs = array_size (int_range 2 3) (list_size (int_range 1 2) tx) in
      (* at most one crash or stall per process, and one injected abort *)
      let slot_fault pid =
        oneof
          [
            map (fun at -> Fault.crash ~pid ~at) (int_bound 12);
            map2
              (fun at steps -> Fault.stall ~pid ~at ~steps)
              (int_bound 12) (int_range 1 6);
          ]
      in
      let faults =
        map3
          (fun a b c -> List.filter_map Fun.id [ a; b; c ])
          (opt (slot_fault 0)) (opt (slot_fault 1))
          (opt (map2 (fun pid op -> Fault.abort ~pid ~op) (int_bound 1) (int_bound 4)))
      in
      quad (int_bound (Array.length entries - 1)) procs faults (int_bound 9999))
  in
  let print (i, procs, faults, seed) =
    let (module T : Tm_intf.Both) = entries.(i) in
    Printf.sprintf "%s procs=%d faults=[%s] seed=%d" T.name
      (Array.length procs)
      (String.concat ";" (List.map Fault.to_string faults))
      seed
  in
  QCheck2.Test.make ~count:1000 ~print
    ~name:"every TM: direct instance on Fibers == step instance on Steps" gen
    (fun (i, procs, faults, seed) ->
      let e = entries.(i) in
      let (module T : Tm_intf.Both) = e in
      (* a single-object TM gets each transaction on its first object *)
      let procs =
        if single_object T.name then
          Array.map
            (List.map (fun spec ->
                 match spec with
                 | [] -> spec
                 | (Workload.R x | Workload.W (x, _)) :: _ ->
                     List.map
                       (function
                         | Workload.R _ -> Workload.R x
                         | Workload.W (_, v) -> Workload.W (x, v))
                       spec))
            procs
        else procs
      in
      let w = { Workload.nobjs = 3; procs } in
      run_instance e ~engine:Machine.Fibers w faults seed
      = run_instance e ~engine:Machine.Steps w faults seed)


(* ------------------------------------------------------------------ *)
(* OSTM deep-helping regression                                        *)
(* ------------------------------------------------------------------ *)

(* Build a helping chain of 69 in-flight commits — far past the old
   64-frame recursion guard, which turned exactly this execution into a
   crash of the helping reader — and let one read drive it to completion.
   Committer [i] owns object [i] and pends object [i+1]; the reader's read
   of object 0 must iteratively help the whole chain in constant stack. *)
let test_ostm_deep_helping () =
  let module O = Ptm_tms.Ostm.Stepwise in
  let n = 70 in
  let m = Machine.create ~engine:Machine.Steps ~nprocs:n () in
  let t = O.create m ~nobjs:n in
  let mem = Machine.memory m in
  let header i =
    let name = Printf.sprintf "ostm.h[%d]" i in
    let rec find a =
      if a >= Memory.size mem then Alcotest.failf "no cell named %s" name
      else if String.equal (Memory.name mem a) name then a
      else find (a + 1)
    in
    find 0
  in
  let owned i =
    match Memory.peek mem (header i) with Value.Int _ -> true | _ -> false
  in
  for i = 0 to n - 2 do
    Machine.spawn_step m i
      (Sm.suspend (fun () ->
           let tx = O.fresh t ~pid:i ~id:i in
           let* w1 = O.write t tx i 100 in
           match w1 with
           | Error `Abort -> Sm.return ()
           | Ok () -> (
               let* w2 = O.write t tx (i + 1) 100 in
               match w2 with
               | Error `Abort -> Sm.return ()
               | Ok () ->
                   let* _ = O.try_commit t tx in
                   Sm.return ())))
  done;
  (* Ascending order: when committer [i] runs, headers [i] and [i+1] are
     still clean, so it stops right after its acquiring CAS of header [i]
     — before ever touching the rival descriptor on header [i+1]. *)
  for i = 0 to n - 2 do
    let guard = ref 0 in
    while not (owned i) do
      incr guard;
      if !guard > 10_000 then
        Alcotest.failf "committer %d never acquired object %d" i i;
      match Machine.step m i with
      | `Progress | `Paused -> ()
      | `Done -> Alcotest.failf "committer %d finished without acquiring" i
    done
  done;
  Machine.spawn_step m (n - 1)
    (Sm.suspend (fun () ->
         let tx = O.fresh t ~pid:(n - 1) ~id:n in
         let* _ = O.read t tx 0 in
         Sm.return ()));
  (match Sched.solo ~max_steps:200_000 m (n - 1) with
  | `Done -> ()
  | `Paused -> Alcotest.fail "helping reader paused");
  (* The old recursive helper crashed the reader right here; the iterative
     loop must finish it with every descriptor resolved. *)
  Machine.check_crashes m;
  Sched.round_robin m;
  Machine.check_crashes m;
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "object %d released (header clean)" i)
      false (owned i)
  done

(* ------------------------------------------------------------------ *)
(* Bounds_error typing                                                 *)
(* ------------------------------------------------------------------ *)

(* A TM that aborts every operation can satisfy no lower-bound script: the
   construction must identify itself and the diverging step in a typed
   error instead of a bare Failure. *)
module Abortive : Tm_intf.S = struct
  let name = "abortive"

  let props =
    {
      Tm_intf.opaque = false;
      weak_dap = true;
      invisible_reads = true;
      weak_invisible_reads = true;
      progressive = false;
      strongly_progressive = false;
    }

  type t = unit

  let create _ ~nobjs:_ = ()

  type tx = unit

  let fresh () ~pid:_ ~id:_ = ()
  let read () () _ = Error `Abort
  let write () () _ _ = Error `Abort
  let try_commit () () = Error `Abort
end

let test_bounds_error_typed () =
  match Ptm_bounds.Lemma2.run (module Abortive) ~i:4 with
  | _ -> Alcotest.fail "lemma2 accepted an always-aborting TM"
  | exception Ptm_bounds.Bounds_error.Bounds_error { construction; tm; stage }
    ->
      Alcotest.(check string) "construction" "lemma2" construction;
      Alcotest.(check string) "tm" "abortive" tm;
      Alcotest.(check bool) "stage is reported" true (String.length stage > 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)
(* ------------------------------------------------------------------ *)

(* Two-process TTAS mutual-exclusion fixture (as in test_explore), the
   workload for the journaling and domain tests. Two processes keep the
   schedule tree finite-ish under the step bound without tripping the leaf
   budget — a budget trip is resolved by a cross-domain race and would make
   the stats legitimately nondeterministic. *)
let mk_ttas ?(nprocs = 2) () =
  let m = Machine.create ~trace:Trace.Off ~nprocs () in
  let lock = Ttas.create m ~nprocs in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to nprocs - 1 do
    Machine.spawn m pid (fun () ->
        Ttas.enter lock ~pid;
        let v = Proc.read_int c in
        Proc.write c (Value.Int (v + 1));
        Ttas.exit_cs lock ~pid)
  done;
  m

let counter_is nprocs m =
  let mem = Machine.memory m in
  let rec find a =
    if a >= Memory.size mem then false
    else if String.equal (Memory.name mem a) "c" then
      Value.to_int (Memory.peek mem a) = nprocs
    else find (a + 1)
  in
  find 0

let explore_ttas ?checkpoint_file ?(resume = false) ?(domains = 1)
    ?(max_steps = 26) () =
  Explore.run ~mk:(mk_ttas ~nprocs:2) ~final:(counter_is 2) ~max_steps
    ~domains ?checkpoint_file ~resume ()

let temp_ckpt tag =
  let f = Filename.temp_file ("ptm-" ^ tag) ".ckpt" in
  Sys.remove f;
  f

let test_resume_completed_journal () =
  let f = temp_ckpt "done" in
  let fresh = explore_ttas ~checkpoint_file:f () in
  (* every task is on disk: the resume restores the whole run verbatim *)
  let resumed = explore_ttas ~checkpoint_file:f ~resume:true () in
  Sys.remove f;
  Alcotest.(check bool) "resume of a finished journal restores the stats" true
    (fresh = resumed)

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let write_lines file lines =
  let oc = open_out file in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let current = "ptm-ckpt 5 "

let retag tag l =
  let n = String.length current in
  if String.length l >= n && String.equal (String.sub l 0 n) current then
    Some (tag ^ String.sub l n (String.length l - n))
  else None

(* Rewrite a finished journal into an older version: the header gets
   [tag], and [layout] rebuilds every done line from its leading columns
   (up to [steps]), its fault count and the rest. Resuming it must be
   refused, not parsed into shifted stats. *)
let downgrade file tag layout =
  write_lines file
    (List.map
       (fun l ->
         match retag tag l with
         | Some l -> l
         | None -> (
             match String.split_on_char ' ' l with
             | "d" :: i :: paths :: cut :: pruned :: viol :: replays :: steps
               :: faults :: rest ->
                 String.concat " "
                   (layout
                      [ "d"; i; paths; cut; pruned; viol; replays; steps ]
                      faults rest)
             | _ -> l))
       (read_lines file))

(* Versions 3 and 4 had a [saved] column after [steps], and counted steps
   without the fed replay positions; version 3 also counted replays and
   steps of searches that replayed where this one restores. Version 2 had
   two more stats columns after the fault count. *)
let with_saved head faults rest = head @ ("0" :: faults :: rest)
let v2_layout head faults rest = head @ ("0" :: faults :: "0" :: "0" :: rest)

let test_resume_mismatch_rejected () =
  let f = temp_ckpt "mismatch" in
  let refused what =
    match explore_ttas ~checkpoint_file:f ~resume:true ~max_steps:26 () with
    | _ -> Alcotest.failf "resume accepted %s" what
    | exception Invalid_argument msg ->
        let key = "journal records a different exploration" in
        let n = String.length key in
        let rec has i =
          i + n <= String.length msg
          && (String.equal (String.sub msg i n) key || has (i + 1))
        in
        Alcotest.(check bool) (what ^ ": the mismatch error") true (has 0)
  in
  ignore (explore_ttas ~checkpoint_file:f ~max_steps:28 ());
  refused "a journal of a different exploration";
  ignore (explore_ttas ~checkpoint_file:f ~max_steps:26 ());
  downgrade f "ptm-ckpt 4 " with_saved;
  refused "a ptm-ckpt 4 journal";
  ignore (explore_ttas ~checkpoint_file:f ~max_steps:26 ());
  downgrade f "ptm-ckpt 3 " with_saved;
  refused "a ptm-ckpt 3 journal";
  ignore (explore_ttas ~checkpoint_file:f ~max_steps:26 ());
  downgrade f "ptm-ckpt 2 " v2_layout;
  Alcotest.(check bool) "the downgraded journal is ptm-ckpt 2" true
    (String.equal
       (String.sub (List.hd (read_lines f)) 0 11)
       "ptm-ckpt 2 ");
  refused "a ptm-ckpt 2 journal";
  Sys.remove f

let count_done_lines file =
  if not (Sys.file_exists file) then 0
  else begin
    let ic = open_in file in
    let n = ref 0 in
    (try
       while true do
         let l = input_line ic in
         if String.length l > 0 && l.[0] = 'd' then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  end

(* A finite-tree fixture big enough that a kill lands mid-run: three
   processes race five FAA increments each on one cell — C(15;5,5,5) ≈
   757k complete leaves, a few seconds of naive enumeration. *)
let mk_race () =
  let nprocs = 3 and ops = 5 in
  let m = Machine.create ~trace:Trace.Off ~nprocs () in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to nprocs - 1 do
    Machine.spawn m pid (fun () ->
        for _ = 1 to ops do
          ignore (Proc.faa c 1)
        done)
  done;
  m

let explore_race ?checkpoint_file ?(resume = false) () =
  Explore.run ~mk:mk_race
    ~final:(counter_is 15)
    ~max_steps:20 ~max_paths:2_000_000 ?checkpoint_file ~resume ()

(* The real thing: fork an exploration journaling to disk, [kill -9] it
   once a few tasks have landed, then resume in-process — the final stats
   must equal an uninterrupted run's. *)
let test_resume_after_kill () =
  let ref_file = temp_ckpt "ref" in
  let reference = explore_race ~checkpoint_file:ref_file () in
  Sys.remove ref_file;
  let f = temp_ckpt "kill" in
  (match Unix.fork () with
  | 0 ->
      (try ignore (explore_race ~checkpoint_file:f ()) with _ -> ());
      Unix._exit 0
  | pid ->
      let deadline = Unix.gettimeofday () +. 60.0 in
      let rec wait_for_progress () =
        if count_done_lines f >= 3 || Unix.gettimeofday () > deadline then ()
        else
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              Unix.sleepf 0.002;
              wait_for_progress ()
          | _, _ -> () (* already finished: the journal is complete *)
      in
      wait_for_progress ();
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()));
  let resumed = explore_race ~checkpoint_file:f ~resume:true () in
  Sys.remove f;
  Alcotest.(check bool) "resume after kill -9 equals an uninterrupted run"
    true (reference = resumed)

(* ------------------------------------------------------------------ *)
(* Frontier determinism across domain counts                          *)
(* ------------------------------------------------------------------ *)

let test_domains_same_verdict () =
  let run domains = explore_ttas ~domains () in
  let a = run 1 and b = run 2 and c = run 4 in
  let key (s : Explore.stats) = (s.paths, s.cut, s.violations) in
  Alcotest.(check bool) "domains 1 == 2 on paths/cut/violations" true
    (key a = key b);
  Alcotest.(check bool) "domains 1 == 4 on paths/cut/violations" true
    (key a = key c)

let test_journal_domain_independent () =
  (* with a journal the task decomposition is fixed, so the full stats —
     replays and steps included — are identical whatever the domain count *)
  let fa = temp_ckpt "d1" and fb = temp_ckpt "d4" in
  let a = explore_ttas ~checkpoint_file:fa ~domains:1 () in
  let b = explore_ttas ~checkpoint_file:fb ~domains:4 () in
  Sys.remove fa;
  Sys.remove fb;
  Alcotest.(check bool) "journaled stats independent of domains" true (a = b)

let () =
  Alcotest.run "engines"
    [
      ( "differential",
        [
          Alcotest.test_case "fixtures bit-identical" `Quick
            test_fixture_differential;
          Alcotest.test_case "step form == direct form" `Quick
            test_step_vs_direct;
          Alcotest.test_case "explorer stats equal" `Slow
            test_explore_differential;
          of_q qcheck_engine_differential;
          of_q qcheck_instances_differential;
          Alcotest.test_case "a machine refuses the other form" `Quick
            test_wrong_form_rejected;
        ] );
      ( "restore",
        [
          Alcotest.test_case "every step form: restore == replay" `Quick
            test_restore_vs_replay;
          Alcotest.test_case "a restored Ring keeps a tail" `Quick
            test_restore_ring_suffix;
          of_q qcheck_restore_differential;
          Alcotest.test_case "a ref written after a wait is caught" `Quick
            test_contract_breach_detected;
          Alcotest.test_case "trail scoped to the search" `Quick
            test_trail_scoping;
        ] );
      ( "ostm",
        [ Alcotest.test_case "deep helping chain" `Quick test_ostm_deep_helping ]
      );
      ( "bounds",
        [ Alcotest.test_case "typed divergence error" `Quick
            test_bounds_error_typed ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume of finished journal" `Quick
            test_resume_completed_journal;
          Alcotest.test_case "mismatched journal rejected" `Quick
            test_resume_mismatch_rejected;
          Alcotest.test_case "resume survives kill -9" `Slow
            test_resume_after_kill;
        ] );
      (* The longest group name sets the column alcotest cuts test names
         to, so this one keeps the 13 characters of its old name and every
         test keeps its printed name. *)
      ( "frontier-task",
        [
          Alcotest.test_case "verdict independent of domains" `Slow
            test_domains_same_verdict;
          Alcotest.test_case "journaled stats independent of domains" `Slow
            test_journal_domain_independent;
        ] );
    ]
