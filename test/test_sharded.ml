(* The sharded multi-TM family. Pins, in order: the [shards = 1]
   degenerate case is operation-for-operation identical to the inner TM
   (registry-wide, full-trace equality); single-shard transactions take
   the fast path (a read-only commit emits zero coordination events, a
   one-shard writer touches exactly one fence); genuinely cross-shard
   commits are opacity-clean under the streaming monitor (every sharded
   registry TM, and — via QCheck — random mixes and fault plans on both
   machine engines); the one sharded body's step instance is
   bit-identical across engines and event-identical to its direct
   instance, also under the load engine's contended traffic; and a
   revalidation re-samples only the shards whose seqlock moved. *)

open Ptm_machine
open Ptm_core

module Sm = Proc.Step

let ( let* ) = Sm.bind
let of_q t = QCheck_alcotest.to_alcotest t

module X1 = struct
  let shards = 1
end

module X4 = struct
  let shards = 4
end

(* ------------------------------------------------------------------ *)
(* shards = 1: full passthrough                                        *)
(* ------------------------------------------------------------------ *)

let outcome_fp (o : Runner.outcome) =
  ( Trace.entries (Machine.trace o.Runner.machine),
    o.Runner.commits,
    o.Runner.aborts )

let test_shards1_passthrough () =
  let w =
    Workload.random ~seed:21 ~nprocs:3 ~nobjs:6 ~txs_per_proc:3 ~ops_per_tx:4
      ()
  in
  List.iter
    (fun (module T : Tm_intf.S) ->
      let module S1 = Ptm_tms.Sharded.Make (X1) (T) in
      let go tm =
        outcome_fp
          (Runner.run tm ~retries:2 ~schedule:(Runner.Random_sched 5) w)
      in
      Alcotest.(check bool)
        (T.name ^ ": x1 wrapper trace-identical to the bare TM")
        true
        (go (module T) = go (module S1)))
    Ptm_tms.Registry.all

(* ------------------------------------------------------------------ *)
(* Fast paths: coordination cells touched only when necessary           *)
(* ------------------------------------------------------------------ *)

(* Addresses of this machine's cells whose name matches [p]. *)
let addrs_matching m p =
  let mem = Machine.memory m in
  let rec go a acc =
    if a >= Memory.size mem then acc
    else
      go (a + 1)
        (if p (Memory.name mem a) then a :: acc else acc)
  in
  go 0 []

let contains_sub ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

let touched_addrs o =
  List.sort_uniq compare
    (List.map
       (fun (e : Trace.mem_event) -> e.addr)
       (Trace.mem_events (Machine.trace o.Runner.machine)))

let test_read_only_zero_coordination () =
  (* read-only transactions: t-reads may sample fences and seqlocks (that
     is how stable windows are checked), but nothing is ever acquired,
     published or bumped — zero nontrivial events on coordination cells,
     and the commits themselves are event-free *)
  let w =
    Workload.random ~seed:3 ~nprocs:3 ~nobjs:8 ~txs_per_proc:3 ~ops_per_tx:4
      ~write_ratio:0.0 ()
  in
  let (module T) =
    Option.get (Ptm_tms.Registry.by_name "norec.x4")
  in
  let o = Runner.run (module T) ~retries:2 ~schedule:Runner.Round_robin w in
  Alcotest.(check bool) "commits" true (o.Runner.commits > 0);
  let coord =
    addrs_matching o.Runner.machine (fun n ->
        contains_sub ~sub:".fence[" n || contains_sub ~sub:".seq[" n)
  in
  let nontrivial_coord =
    List.filter
      (fun (e : Trace.mem_event) ->
        List.mem e.addr coord && not (Primitive.is_trivial e.prim))
      (Trace.mem_events (Machine.trace o.Runner.machine))
  in
  Alcotest.(check int)
    "no nontrivial coordination event" 0
    (List.length nontrivial_coord)

let test_single_shard_one_fence () =
  (* writes confined to shard 0 (objects 0 and 4 of 8, under 4 shards):
     fence[0]/seq[0] may appear, the other shards' fences must not *)
  let w =
    Workload.random ~seed:4 ~nprocs:3 ~nobjs:2 ~txs_per_proc:3 ~ops_per_tx:3
      ~write_ratio:1.0 ()
  in
  let w =
    {
      Workload.nobjs = 8;
      procs =
        Array.map
          (List.map
             (List.map (function
               | Workload.R x -> Workload.R (x * 4)
               | Workload.W (x, v) -> Workload.W (x * 4, v))))
          w.Workload.procs;
    }
  in
  let (module T) = Option.get (Ptm_tms.Registry.by_name "norec.x4") in
  let o = Runner.run (module T) ~retries:2 ~schedule:Runner.Round_robin w in
  Alcotest.(check bool) "commits" true (o.Runner.commits > 0);
  let touched = touched_addrs o in
  let fence s = contains_sub ~sub:(Printf.sprintf ".fence[%d]" s) in
  let fenced s =
    List.exists
      (fun a -> List.mem a touched)
      (addrs_matching o.Runner.machine (fence s))
  in
  Alcotest.(check bool) "shard 0's fence is used" true (fenced 0);
  for s = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d's fence is never touched" s)
      false (fenced s)
  done

(* ------------------------------------------------------------------ *)
(* Cross-shard commits: opacity-clean on every sharded registry TM      *)
(* ------------------------------------------------------------------ *)

let test_cross_shard_opacity () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      (* bank transfers across 8 accounts under 4 shards: most touch two
         shards, so multi-fence commits dominate *)
      let w =
        Workload.bank ~nprocs:3 ~naccounts:8 ~transfers_per_proc:4 ~seed:9
      in
      let o =
        Runner.run (module T) ~retries:4 ~monitor:Runner.Monitor_stream
          ~schedule:(Runner.Random_sched 13) w
      in
      Alcotest.(check bool) (T.name ^ ": commits") true (o.Runner.commits > 0);
      (match o.Runner.monitor with
      | Runner.Monitor_ok _ -> ()
      | Runner.Opacity_violation v ->
          Alcotest.failf "%s: opacity violation: %a" T.name
            Opacity_stream.pp_violation v
      | Runner.Not_monitored | Runner.Monitor_inconclusive _ ->
          Alcotest.failf "%s: monitor gave no verdict" T.name);
      (* the run really was cross-shard: at least two distinct fences saw
         traffic *)
      let touched = touched_addrs o in
      let fences_used =
        List.filter
          (fun a -> List.mem a touched)
          (addrs_matching o.Runner.machine (contains_sub ~sub:".fence["))
      in
      Alcotest.(check bool)
        (T.name ^ ": multiple fences engaged")
        true
        (List.length fences_used >= 2))
    Ptm_tms.Registry.sharded

(* ------------------------------------------------------------------ *)
(* Step-form instantiations: engines and forms agree                    *)
(* ------------------------------------------------------------------ *)

let status_tag m pid =
  match Machine.status m pid with
  | Machine.Idle -> "idle"
  | Machine.Runnable -> "runnable"
  | Machine.Terminated -> "terminated"
  | Machine.Halted -> "halted"
  | Machine.Crashed e -> "crashed: " ^ Printexc.to_string e

let fingerprint ~nprocs m =
  ( Trace.entries (Machine.trace m),
    List.init nprocs (Machine.steps_of m),
    List.init nprocs (status_tag m) )

(* Interpret a workload transaction as a step program over an
   instrumented context. *)
let rec prog_of_ops read write = function
  | [] -> Sm.return (Ok ())
  | op :: rest -> (
      let* r =
        match op with
        | Workload.R x ->
            let* r = read x in
            Sm.return (Result.map (fun (_ : int) -> ()) r)
        | Workload.W (x, v) -> write x v
      in
      match r with
      | Error `Abort -> Sm.return (Error `Abort)
      | Ok () -> prog_of_ops read write rest)

let nprocs_of (w : Workload.t) = Array.length w.Workload.procs

let mk_step_run (module T : Tm_intf.S_step) ?observer ?(faults = []) ~engine
    (w : Workload.t) =
  let nprocs = nprocs_of w in
  let m = Machine.create ~engine ~nprocs () in
  Trace.set_observer (Machine.trace m) observer;
  let module R = Runner.Make_step (T) in
  let ctx = R.init m ~nobjs:w.Workload.nobjs in
  Machine.set_faults m faults;
  Array.iteri
    (fun pid txs ->
      Machine.spawn_step m pid
        (Sm.iter
           (fun ops ->
             let* (_ : (unit, Tm_intf.abort) result) =
               R.atomically ctx ~pid ~retries:2 (fun tx ->
                   prog_of_ops (R.read ctx tx) (R.write ctx tx) ops)
             in
             Sm.return ())
           txs))
    w.Workload.procs;
  m

let mk_direct_run (module T : Tm_intf.S) (w : Workload.t) =
  let nprocs = nprocs_of w in
  let m = Machine.create ~nprocs () in
  let module R = Runner.Make (T) in
  let ctx = R.init m ~nobjs:w.Workload.nobjs in
  Array.iteri
    (fun pid txs ->
      Machine.spawn m pid (fun () ->
          List.iter
            (fun ops ->
              let (_ : (unit, Tm_intf.abort) result) =
                R.atomically ctx ~pid ~retries:2 (fun tx ->
                    List.fold_left
                      (fun acc op ->
                        match acc with
                        | Error `Abort -> acc
                        | Ok () -> (
                            match op with
                            | Workload.R x ->
                                Result.map
                                  (fun (_ : int) -> ())
                                  (R.read ctx tx x)
                            | Workload.W (x, v) -> R.write ctx tx x v))
                      (Ok ()) ops)
              in
              ())
            txs))
    w.Workload.procs;
  m

let cross_shard_w =
  Workload.bank ~nprocs:3 ~naccounts:8 ~transfers_per_proc:3 ~seed:17

let test_step_engines_bit_identical () =
  List.iter
    (fun ((module T : Tm_intf.S_step) as tm) ->
      List.iter
        (fun seed ->
          let run engine =
            let m = mk_step_run tm ~engine cross_shard_w in
            Sched.random ~seed m;
            Machine.check_crashes m;
            fingerprint ~nprocs:(nprocs_of cross_shard_w) m
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: Steps == Fibers" T.name seed)
            true
            (run Machine.Fibers = run Machine.Steps))
        [ 1; 7; 42 ])
    (List.map Ptm_tms.Registry.step Ptm_tms.Registry.x4)

(* The one sharded body's two instances run the same events. *)
let test_step_vs_direct () =
  List.iter
    (fun e ->
      let ((module T : Tm_intf.S_step) as tm) = Ptm_tms.Registry.step e in
      let fp mk =
        let m = mk () in
        Sched.random ~seed:7 m;
        Machine.check_crashes m;
        fingerprint ~nprocs:(nprocs_of cross_shard_w) m
      in
      Alcotest.(check bool)
        (T.name ^ ": step form == direct form")
        true
        (fp (fun () -> mk_step_run tm ~engine:Machine.Fibers cross_shard_w)
        = fp (fun () ->
              mk_direct_run (Ptm_tms.Registry.direct e) cross_shard_w)))
    Ptm_tms.Registry.x4

(* A step instance's t-operations performed inside the caller's fiber, so
   the step instance can serve where a direct TM is expected (under
   [Load], in a direct-style scenario). *)
module Performed (T : Tm_intf.S_step) : Tm_intf.S = struct
  include T

  let read t tx x = Proc.Step.perform (T.read t tx x)
  let write t tx x v = Proc.Step.perform (T.write t tx x v)
  let try_commit t tx = Proc.Step.perform (T.try_commit t tx)
end

(* ------------------------------------------------------------------ *)
(* Under load: the direct and step instances serve identical runs       *)
(* ------------------------------------------------------------------ *)

(* The hot-key mix with retries that never run out: contended enough to
   reach the revalidation restarts and the stable-window re-samples, where
   a single event of difference between the instances shifts every later
   interleaving and so every counter. *)
let twin_cfg seed =
  {
    Load.default_config with
    clients = 16;
    nprocs = 4;
    nobjs = 64;
    txs_per_client = 8;
    mix =
      {
        Load.dist = Workload.Uniform;
        hotspot = Some (4, 0.5);
        write_ratio = 0.5;
        ops_min = 2;
        ops_max = 6;
      };
    seed;
    retries = 1000;
  }

let test_twins_under_load () =
  let performed name : Tm_intf.tm =
    let (module T : Tm_intf.S_step) =
      Ptm_tms.Registry.step (Option.get (Ptm_tms.Registry.find name))
    in
    (module Performed (T))
  in
  let pairs =
    List.map
      (fun name -> (name, performed name))
      [ "norec.x4"; "sgl.x4"; "ofree.x4"; "undolog.x4" ]
  in
  let counters (r : Load.result) =
    (r.Load.committed, r.aborted, r.failed, r.steps, r.wasted)
  in
  List.iter
    (fun (name, step) ->
      let direct = Option.get (Ptm_tms.Registry.by_name name) in
      let differing =
        List.filter
          (fun seed ->
            counters (Load.run direct (twin_cfg seed))
            <> counters (Load.run step (twin_cfg seed)))
          (List.init 100 (fun i -> i + 1) @ [ 176; 267 ])
      in
      Alcotest.(check (list int))
        (name ^ ": seeds where the step instance's counters differ")
        [] differing)
    pairs

(* ------------------------------------------------------------------ *)
(* Selective revalidation: only the shards that moved are re-sampled    *)
(* ------------------------------------------------------------------ *)

(* Address ranges [lo, hi) of the cells each inner instance allocates, in
   creation order — shard order, since [Sharded] creates shard 0 first. *)
let inner_ranges = ref []

let recording create m ~nobjs =
  let size () = Memory.size (Machine.memory m) in
  let lo = size () in
  let t = create m ~nobjs in
  inner_ranges := !inner_ranges @ [ (lo, size ()) ];
  t

module Norec_rec = struct
  include Ptm_tms.Norec

  let create = recording create
end

module Norec_step_rec = struct
  include Ptm_tms.Norec.Stepwise

  let create = recording create
end

(* Eight objects under four shards (object [x] in shard [x mod 4]). The
   reader caches object 0 (shard 0) and object 1 (shard 1), the writer
   then commits [writes] (all in shard 1), and the reader's next uncached
   read, of object 2, finds shard 1's seqlock moved and revalidates.
   Returns that read's result and the memory events it issued. *)
let selective_scenario (module T : Tm_intf.S) writes =
  inner_ranges := [];
  let m = Machine.create ~nprocs:2 () in
  let t = T.create m ~nobjs:8 in
  let cached = ref false and third = ref None in
  Machine.spawn m 0 (fun () ->
      let tx = T.fresh t ~pid:0 ~id:1 in
      ignore (T.read t tx 0 : (int, Tm_intf.abort) result);
      ignore (T.read t tx 1 : (int, Tm_intf.abort) result);
      cached := true;
      third := Some (T.read t tx 2));
  Machine.spawn m 1 (fun () ->
      let tx = T.fresh t ~pid:1 ~id:2 in
      List.iter
        (fun (x, v) -> ignore (T.write t tx x v : (unit, Tm_intf.abort) result))
        writes;
      match T.try_commit t tx with
      | Ok () -> ()
      | Error `Abort -> failwith "the lone writer aborted");
  while not !cached do
    ignore (Machine.step m 0 : Machine.step_result)
  done;
  ignore (Sched.solo m 1 : [ `Done | `Paused ]);
  let from = Trace.length (Machine.trace m) in
  ignore (Sched.solo m 0 : [ `Done | `Paused ]);
  Machine.check_crashes m;
  let events = ref [] in
  Trace.iter_from (Machine.trace m) from (function
    | Trace.Mem e -> events := e :: !events
    | Trace.Note _ -> ());
  (m, Option.get !third, List.rev !events)

let test_selective_resample () =
  List.iter
    (fun (form, tm) ->
      List.iter
        (fun (what, writes, changed) ->
          let m, third, events = selective_scenario tm writes in
          let label s = Printf.sprintf "%s, writer %s: %s" form what s in
          let named sub = addrs_matching m (contains_sub ~sub) in
          let inner s (e : Trace.mem_event) =
            let lo, hi = List.nth !inner_ranges s in
            e.addr >= lo && e.addr < hi
          in
          let on_fence0 (e : Trace.mem_event) =
            List.mem e.addr (named ".fence[0]")
          in
          Alcotest.(check int)
            (label "events on shard 0's fence or inner cells")
            0
            (List.length
               (List.filter (fun e -> on_fence0 e || inner 0 e) events));
          Alcotest.(check bool)
            (label "shard 1 re-sampled") true
            (List.exists (inner 1) events);
          Alcotest.(check bool)
            (label "the read aborts iff the cached value changed")
            changed
            (Result.is_error third))
        [
          ("changes object 1", [ (1, 7) ], true);
          ("writes object 5 only", [ (5, 7) ], false);
          ("rewrites object 1's value", [ (1, 0) ], false);
        ])
    [
      ("direct", (module Ptm_tms.Sharded.Make (X4) (Norec_rec) : Tm_intf.S));
      ( "step",
        (module Performed (Ptm_tms.Sharded.Make_step (X4) (Norec_step_rec))) );
    ]

(* ------------------------------------------------------------------ *)
(* QCheck: random mixes + fault plans, opacity-clean on both engines    *)
(* ------------------------------------------------------------------ *)

let qcheck_cross_shard_opacity =
  let gen =
    QCheck2.Gen.(
      let workload =
        bind (int_range 2 3) (fun nprocs ->
            bind (int_range 4 10) (fun nobjs ->
                map3
                  (fun seed (txs, ops) (wr, zipf) ->
                    Workload.random ~seed ~nprocs ~nobjs ~txs_per_proc:txs
                      ~ops_per_tx:ops ~write_ratio:wr
                      ~dist:
                        (if zipf then Workload.Zipf 0.9 else Workload.Uniform)
                      ())
                  (int_bound 9999)
                  (pair (int_range 1 3) (int_range 1 4))
                  (pair (oneofl [ 0.0; 0.3; 0.7; 1.0 ]) bool)))
      in
      let faults =
        oneof
          [
            return [];
            map2 (fun pid at -> [ Fault.crash ~pid ~at ]) (int_bound 1)
              (int_bound 20);
            map2
              (fun pid at -> [ Fault.stall ~pid ~at ~steps:5 ])
              (int_bound 1) (int_bound 20);
            map2 (fun pid op -> [ Fault.abort ~pid ~op ]) (int_bound 1)
              (int_bound 5);
          ]
      in
      pair workload (pair faults (int_bound 9999)))
  in
  let print (w, (faults, seed)) =
    Format.asprintf "%a faults=%s seed=%d" Workload.pp w
      (String.concat ","
         (List.map
            (fun (f : Fault.spec) -> Printf.sprintf "p%d@%d" f.pid f.at)
            faults))
      seed
  in
  let tm =
    Ptm_tms.Registry.step (Option.get (Ptm_tms.Registry.find "norec.x4"))
  in
  QCheck2.Test.make ~count:120 ~print
    ~name:"sharded: random mixes + faults opacity-clean on both engines" gen
    (fun (w, (faults, seed)) ->
      let verdicts =
        List.map
          (fun engine ->
            let chk = Opacity_stream.create () in
            let m =
              mk_step_run tm ~engine ~faults
                ~observer:(Opacity_stream.on_entry chk)
                w
            in
            (* crashes can leave survivors spinning on a dead fence-holder:
               a budget trip is expected there, never a violation *)
            (try Sched.random ~seed ~max_steps:30_000 m
             with Sched.Out_of_steps -> ());
            Machine.check_crashes m;
            ( (match Opacity_stream.verdict chk with
              | Opacity_stream.Violation v ->
                  QCheck2.Test.fail_reportf "opacity violation: %a"
                    Opacity_stream.pp_violation v
              | Opacity_stream.Opaque | Opacity_stream.Inconclusive _ -> ()),
              fingerprint ~nprocs:(nprocs_of w) m ))
          [ Machine.Fibers; Machine.Steps ]
      in
      match verdicts with
      | [ a; b ] -> a = b
      | _ -> assert false)

let () =
  Alcotest.run "sharded"
    [
      ( "passthrough",
        [
          Alcotest.test_case "shards=1 == inner TM (registry-wide)" `Quick
            test_shards1_passthrough;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "read-only: zero coordination events" `Quick
            test_read_only_zero_coordination;
          Alcotest.test_case "single shard: one fence" `Quick
            test_single_shard_one_fence;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "bank mixes opacity-clean (all sharded TMs)"
            `Quick test_cross_shard_opacity;
          of_q qcheck_cross_shard_opacity;
        ] );
      ( "engines",
        [
          Alcotest.test_case "Steps == Fibers" `Quick
            test_step_engines_bit_identical;
          Alcotest.test_case "step form == direct form" `Quick
            test_step_vs_direct;
          Alcotest.test_case "twins agree under load" `Quick
            test_twins_under_load;
        ] );
      ( "revalidate",
        [
          Alcotest.test_case "only moved shards are re-sampled" `Quick
            test_selective_resample;
        ] );
    ]
