(* The sharded multi-TM family. Pins, in order: the [shards = 1]
   degenerate case is operation-for-operation identical to the inner TM
   (registry-wide, full-trace equality); single-shard transactions take
   the fast path (a read-only commit emits zero coordination events, a
   one-shard writer touches exactly one lock word); the exact uncontended
   step cost of a read and of a two-shard commit; genuinely cross-shard
   commits are opacity-clean under the streaming monitor (every sharded
   registry TM, and — via QCheck — random mixes and fault plans on both
   machine engines); every schedule of a fixture where a stable window
   meets a hold to validate is opaque, with both checkers agreeing; the
   one sharded body's step instance on Steps is bit-identical to its
   direct instance on Fibers, also under contended hot-key traffic; and a
   revalidation re-samples only the shards whose version moved, and
   restarts when a commit overtakes its pass, in both instances. *)

open Ptm_machine
open Ptm_core

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
  (* read-only transactions: t-reads may sample lock words (that is how
     stable windows are checked), but nothing is ever held, published or
     bumped — zero nontrivial events on coordination cells, and the
     commits themselves are event-free *)
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
        contains_sub ~sub:".lock[" n)
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
     lock[0] may appear, the other shards' words must not *)
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
  let word s = contains_sub ~sub:(Printf.sprintf ".lock[%d]" s) in
  let used s =
    List.exists
      (fun a -> List.mem a touched)
      (addrs_matching o.Runner.machine (word s))
  in
  Alcotest.(check bool) "shard 0's word is used" true (used 0);
  for s = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d's word is never touched" s)
      false (used s)
  done

(* ------------------------------------------------------------------ *)
(* Step costs: the coordination an uncontended operation pays           *)
(* ------------------------------------------------------------------ *)

(* Machine steps of [op t x], run solo by the one process of a fresh
   machine after [x = setup t]; [build] makes the TM instance [t]. *)
let solo_steps build setup op =
  let m = Machine.create ~nprocs:1 () in
  let t = build m in
  let steps = ref (-1) in
  Machine.spawn m 0 (fun () ->
      let x = setup t in
      let before = Machine.steps_of m 0 in
      op t x;
      steps := Machine.steps_of m 0 - before);
  ignore (Sched.solo m 0 : [ `Done | `Paused ]);
  Machine.check_crashes m;
  !steps

let test_step_costs () =
  let module N = Ptm_tms.Norec in
  let module S = Ptm_tms.Sharded.Make (X4) (N) in
  (* norec's one-shot read (fresh / read / try_commit) and one-write
     transaction, the inner operations the sharded ones wrap *)
  let norec op =
    solo_steps (N.create ~nobjs:2)
      (fun t -> N.fresh t ~pid:0 ~id:1)
      (fun t tx ->
        op t tx;
        ignore (N.try_commit t tx : (unit, Tm_intf.abort) result))
  in
  Alcotest.(check int) "norec's one-shot read" 3
    (norec (fun t tx -> ignore (N.read t tx 0 : (int, Tm_intf.abort) result)));
  Alcotest.(check int) "norec's one-write transaction" 4
    (norec (fun t tx ->
         ignore (N.write t tx 0 7 : (unit, Tm_intf.abort) result)));
  let read t tx x = ignore (S.read t tx x : (int, Tm_intf.abort) result) in
  let after_reading_0 t =
    let tx = S.fresh t ~pid:0 ~id:1 in
    read t tx 0;
    tx
  in
  (* the read of object 1 (shard 1) by a transaction that has read only
     object 0 (shard 0): a stable window (word, one-shot read, word) and
     one read of shard 0's word to find it steady — 2 + 3 + 1 *)
  Alcotest.(check int) "read of an uncached object in a newly touched shard" 6
    (solo_steps (S.create ~nobjs:8) after_reading_0 (fun t tx -> read t tx 1));
  (* holding shard 0 is one CAS from its validated version; shard 1,
     never read, is read then CASed; then shard 1 is published, and both
     are released, shard 1 at the next version — 1 + 2 + 4 + 1 + 1 *)
  Alcotest.(check int) "commit that read shard 0 and wrote shard 1" 9
    (solo_steps (S.create ~nobjs:8) after_reading_0 (fun t tx ->
         ignore (S.write t tx 1 7 : (unit, Tm_intf.abort) result);
         match S.try_commit t tx with
         | Ok () -> ()
         | Error `Abort -> Alcotest.fail "the lone writer aborted"))

(* ------------------------------------------------------------------ *)
(* Cross-shard commits: opacity-clean on every sharded registry TM      *)
(* ------------------------------------------------------------------ *)

let test_cross_shard_opacity () =
  List.iter
    (fun (module T : Tm_intf.S) ->
      (* bank transfers across 8 accounts under 4 shards: most touch two
         shards, so multi-shard commits dominate *)
      let w =
        Workload.bank ~nprocs:3 ~naccounts:8 ~transfers_per_proc:4 ~seed:9
      in
      let o =
        Runner.run (module T) ~retries:4 ~monitor:true
          ~schedule:(Runner.Random_sched 13) w
      in
      Alcotest.(check bool) (T.name ^ ": commits") true (o.Runner.commits > 0);
      (match o.Runner.verdict with
      | Some Opacity_stream.Opaque -> ()
      | Some (Opacity_stream.Violation v) ->
          Alcotest.failf "%s: opacity violation: %a" T.name
            Opacity_stream.pp_violation v
      | None | Some (Opacity_stream.Inconclusive _) ->
          Alcotest.failf "%s: monitor gave no verdict" T.name);
      (* the run really was cross-shard: at least two distinct lock words
         saw traffic *)
      let touched = touched_addrs o in
      let words_used =
        List.filter
          (fun a -> List.mem a touched)
          (addrs_matching o.Runner.machine (contains_sub ~sub:".lock["))
      in
      Alcotest.(check bool)
        (T.name ^ ": multiple lock words engaged")
        true
        (List.length words_used >= 2))
    Ptm_tms.Registry.sharded

(* ------------------------------------------------------------------ *)
(* The two instances agree                                             *)
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

let nprocs_of (w : Workload.t) = Array.length w.Workload.procs

(* [w] through the runner's driver in the engine's form: the direct
   instance on Fibers, the step instance on Steps. *)
let mk_run tm ?observer ?(faults = []) ?(retries = 2) ~engine (w : Workload.t)
    =
  let m = Machine.create ~engine ~nprocs:(nprocs_of w) () in
  Trace.set_observer (Machine.trace m) observer;
  Machine.set_faults m faults;
  Runner.spawn m tm ~retries w;
  m

let run_fp ?retries tm ~engine ~seed w =
  let m = mk_run tm ?retries ~engine w in
  Sched.random ~seed m;
  Machine.check_crashes m;
  fingerprint ~nprocs:(nprocs_of w) m

let cross_shard_w =
  Workload.bank ~nprocs:3 ~naccounts:8 ~transfers_per_proc:3 ~seed:17

(* The one sharded body's two instances run the same events. *)
let test_step_vs_direct () =
  List.iter
    (fun ((module T : Tm_intf.Both) as tm) ->
      List.iter
        (fun seed ->
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: step form == direct form" T.name seed)
            true
            (run_fp tm ~engine:Machine.Fibers ~seed cross_shard_w
            = run_fp tm ~engine:Machine.Steps ~seed cross_shard_w))
        [ 1; 7; 42 ])
    Ptm_tms.Registry.x4

(* The same bank run under fixed fault plans: process 0 crash-stops at its
   seventh slot, process 1 stalls for five slots from its fifth, or process
   2's second t-operation is aborted before it reaches the TM. A survivor
   may spin on a lock word the crashed process holds, so each run stops at
   a step budget, and the two engines must reach it alike. *)
let bank_faults =
  [
    ("crash p0@6", [ Fault.crash ~pid:0 ~at:6 ]);
    ("stall p1@4+5", [ Fault.stall ~pid:1 ~at:4 ~steps:5 ]);
    ("abort p2 op 1", [ Fault.abort ~pid:2 ~op:1 ]);
  ]

let test_engines_under_faults () =
  List.iter
    (fun ((module T : Tm_intf.Both) as tm) ->
      List.iter
        (fun (fname, faults) ->
          List.iter
            (fun seed ->
              let run engine =
                let m = mk_run tm ~faults ~engine cross_shard_w in
                (try Sched.random ~seed ~max_steps:20_000 m
                 with Sched.Out_of_steps -> ());
                Machine.check_crashes m;
                fingerprint ~nprocs:(nprocs_of cross_shard_w) m
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d, %s: Steps == Fibers" T.name seed
                   fname)
                true
                (run Machine.Fibers = run Machine.Steps))
            [ 1; 7; 42 ])
        bank_faults)
    Ptm_tms.Registry.x4

(* ------------------------------------------------------------------ *)
(* Under contention: the two instances serve identical runs            *)
(* ------------------------------------------------------------------ *)

(* A hot-key mix with retries that never run out: contended enough to
   reach the revalidation restarts and the stable-window re-samples, where
   a single event of difference between the instances shifts every later
   interleaving. *)
let hot_w seed =
  Workload.random ~seed ~nprocs:4 ~nobjs:64 ~txs_per_proc:8 ~ops_per_tx:4
    ~hotspot:(4, 0.5) ()

let aborts (entries, _, _) =
  List.length
    (List.filter
       (function
         | Trace.Note { note = History.Tx_res { res = History.RAbort; _ }; _ }
           ->
             true
         | _ -> false)
       entries)

let test_twins_under_load () =
  List.iter
    (fun name ->
      let tm = Option.get (Ptm_tms.Registry.find name) in
      let run engine seed =
        run_fp tm ~retries:1000 ~engine ~seed (hot_w seed)
      in
      let seeds = List.init 100 (fun i -> i + 1) @ [ 176; 267 ] in
      let runs =
        List.map
          (fun seed -> (seed, run Machine.Fibers seed, run Machine.Steps seed))
          seeds
      in
      Alcotest.(check (list int))
        (name ^ ": seeds where the step instance's execution differs")
        []
        (List.filter_map
           (fun (seed, d, s) -> if d = s then None else Some seed)
           runs);
      Alcotest.(check bool)
        (name ^ ": the mix is contended (some attempt aborts)")
        true
        (List.exists (fun (_, d, _) -> aborts d > 0) runs))
    [ "norec.x4"; "sgl.x4"; "ofree.x4"; "undolog.x4" ]

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

(* A program form: an instance of the program signature and the engine
   that runs it. *)
module type Form = sig
  include Proc.S

  val engine : Machine.engine
  val spawn : Machine.t -> int -> (unit -> unit t) -> unit
end

module Direct_form = struct
  include Proc.Direct

  let engine = Machine.Fibers
  let spawn = Machine.spawn
end

module Step_form = struct
  include Proc.Step

  let engine = Machine.Steps
  let spawn m pid p = Machine.spawn_step m pid (p ())
end

(* The scripted revalidation scenarios, written once over the program
   form: the direct rows run norec.x4's direct instance on Fibers, the
   step rows its step instance on Steps. Each returns the machine and the
   result of the reader's third read. *)
module Scripts (P : Form) (T : Tm_intf.Generic with type 'a m := 'a P.t) =
struct
  let ( let* ) = P.bind

  (* Read objects 0 and 1, raise [cached], then read object 2. *)
  let reader t ~cached ~third () =
    P.suspend @@ fun () ->
    let tx = T.fresh t ~pid:0 ~id:1 in
    let* (_ : (int, Tm_intf.abort) result) = T.read t tx 0 in
    let* (_ : (int, Tm_intf.abort) result) = T.read t tx 1 in
    cached := true;
    let* r = T.read t tx 2 in
    third := Some r;
    P.return ()

  let commit t ~pid ~id writes =
    P.suspend @@ fun () ->
    let tx = T.fresh t ~pid ~id in
    let* () =
      P.iter (fun (x, v) -> P.map ignore (T.write t tx x v)) writes
    in
    let* r = T.try_commit t tx in
    match r with
    | Ok () -> P.return ()
    | Error `Abort -> failwith "a lone writer aborted"

  let setup ~nprocs =
    let m = Machine.create ~engine:P.engine ~nprocs () in
    let t = T.create m ~nobjs:8 in
    let cached = ref false and third = ref None in
    P.spawn m 0 (reader t ~cached ~third);
    (m, t, cached, third)

  let step_until_cached m cached =
    while not !cached do
      ignore (Machine.step m 0 : Machine.step_result)
    done

  (* Eight objects under four shards (object [x] in shard [x mod 4]). The
     reader caches object 0 (shard 0) and object 1 (shard 1), the writer
     then commits [writes] (all in shard 1), and the reader's next
     uncached read, of object 2, finds shard 1's version moved and
     revalidates. Also returns the memory events that read issued. *)
  let selective writes =
    inner_ranges := [];
    let m, t, cached, third = setup ~nprocs:2 in
    P.spawn m 1 (fun () -> commit t ~pid:1 ~id:2 writes);
    step_until_cached m cached;
    ignore (Sched.solo m 1 : [ `Done | `Paused ]);
    let from = Trace.length (Machine.trace m) in
    ignore (Sched.solo m 0 : [ `Done | `Paused ]);
    Machine.check_crashes m;
    let events = ref [] in
    Trace.iter_from (Machine.trace m) from (function
      | Trace.Mem e -> events := e :: !events
      | Trace.Note _ -> ());
    (m, Option.get !third, List.rev !events)

  (* Objects 0, 1, 2 sit in shards 0, 1, 2. The reader caches x = obj 0
     and y = obj 1; one commit writes y and z = obj 2, and the reader
     reads z (post-commit), finds shard 1 moved and revalidates. Just
     after its pass has read shard 0's word, a second writer commits
     x := 5 and then y back to 0, so the pass skips x, re-samples y equal
     to its cached value, and only the closing word check sees shard 0
     move. The read set {x = 0, y = 0, z = 7} was never simultaneously
     committed, so the read of z must abort. *)
  let overtaken () =
    let m, t, cached, third = setup ~nprocs:3 in
    let word0 = List.hd (addrs_matching m (contains_sub ~sub:".lock[0]")) in
    P.spawn m 1 (fun () -> commit t ~pid:1 ~id:2 [ (1, 7); (2, 7) ]);
    P.spawn m 2 (fun () ->
        let* () = commit t ~pid:2 ~id:3 [ (0, 5) ] in
        commit t ~pid:2 ~id:4 [ (1, 0) ]);
    step_until_cached m cached;
    ignore (Sched.solo m 1 : [ `Done | `Paused ]);
    (* the steadiness check reads shard 0's word first, the pass second *)
    let reads_of_word0 = ref 0 in
    while !reads_of_word0 < 2 do
      let from = Trace.length (Machine.trace m) in
      ignore (Machine.step m 0 : Machine.step_result);
      Trace.iter_from (Machine.trace m) from (function
        | Trace.Mem { pid = 0; addr; prim = Primitive.Read; _ }
          when addr = word0 ->
            incr reads_of_word0
        | _ -> ())
    done;
    ignore (Sched.solo m 2 : [ `Done | `Paused ]);
    ignore (Sched.solo m 0 : [ `Done | `Paused ]);
    Machine.check_crashes m;
    Option.get !third
end

module Direct_scripts =
  Scripts (Direct_form) (Ptm_tms.Sharded.Make (X4) (Norec_rec))

module Step_scripts =
  Scripts (Step_form) (Ptm_tms.Sharded.Make_step (X4) (Norec_step_rec))

let test_selective_resample () =
  List.iter
    (fun (form, scenario) ->
      List.iter
        (fun (what, writes, changed) ->
          let m, third, events = scenario writes in
          let label s = Printf.sprintf "%s, writer %s: %s" form what s in
          let named sub = addrs_matching m (contains_sub ~sub) in
          let inner s (e : Trace.mem_event) =
            let lo, hi = List.nth !inner_ranges s in
            e.addr >= lo && e.addr < hi
          in
          let on_word0 (e : Trace.mem_event) =
            List.mem e.addr (named ".lock[0]")
          in
          (* the pass reads shard 0's word to find it unmoved, and must
             leave it at that *)
          Alcotest.(check int)
            (label "events on shard 0's word other than reads")
            0
            (List.length
               (List.filter
                  (fun (e : Trace.mem_event) ->
                    on_word0 e && not (Primitive.is_trivial e.prim))
                  events));
          Alcotest.(check int)
            (label "events on shard 0's inner cells")
            0
            (List.length (List.filter (inner 0) events));
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
    [ ("direct", Direct_scripts.selective); ("step", Step_scripts.selective) ]

let test_overtaken_pass () =
  List.iter
    (fun (form, overtaken) ->
      Alcotest.(check bool)
        (form ^ ": the read of z aborts")
        true
        (Result.is_error (overtaken ())))
    [ ("direct", Direct_scripts.overtaken); ("step", Step_scripts.overtaken) ]

(* ------------------------------------------------------------------ *)
(* Exhaustive: stable windows passing a hold to validate                *)
(* ------------------------------------------------------------------ *)

(* Three processes on norec.x4's step form over objects 0 (shard 0) and 1
   (shard 1): P0 reads shard 0 and writes shard 1, so its commit holds
   shard 0 to validate; P1 reads shard 1, then shard 0; P2 writes both,
   so a P1 that sees P2's shard-0 value must find shard 1 held to publish
   or moved. DPOR over every schedule up to
   50 steps: each complete leaf must be opaque to both checkers, and in
   some leaf P1 reads shard 0's word while P0 holds it to validate — the
   only hold to validate this fixture makes. *)
let test_dpor_validate_hold () =
  let tm = Option.get (Ptm_tms.Registry.find "norec.x4") in
  let w =
    Workload.
      {
        nobjs = 2;
        procs =
          [| [ [ R 0; W (1, 10) ] ]; [ [ R 1; R 0 ] ];
             [ [ W (0, 20); W (1, 21) ] ] |];
      }
  in
  let mk () = mk_run tm ~retries:1 ~engine:Machine.Steps w in
  let leaves = ref 0 and overlaps = ref 0 in
  let final m =
    incr leaves;
    let word0 = List.hd (addrs_matching m (contains_sub ~sub:".lock[0]")) in
    let entries = Trace.entries (Machine.trace m) in
    if
      List.exists
        (function
          | Trace.Mem { pid = 1; addr; prim = Primitive.Read; resp; _ } ->
              addr = word0 && Value.to_int resp land 3 = 1
          | _ -> false)
        entries
    then incr overlaps;
    match
      ( Checker.opaque (History.of_entries entries),
        fst (Opacity_stream.check_entries entries) )
    with
    | Checker.Serializable _, Opacity_stream.Opaque -> true
    | ov, sv ->
        Alcotest.failf "leaf not opaque to both checkers: offline=%a stream=%a"
          Checker.pp_verdict ov Opacity_stream.pp_verdict sv
  in
  let s = Explore.run ~mk ~final ~max_steps:50 ~mode:Explore.Dpor () in
  Alcotest.(check int) "violations" 0 s.Explore.violations;
  Alcotest.(check bool) "not exhausted" false s.Explore.exhausted;
  Alcotest.(check int) "every complete leaf checked" s.Explore.paths !leaves;
  Alcotest.(check bool)
    (Printf.sprintf "a stable window passes the hold (%d of %d leaves)"
       !overlaps !leaves)
    true (!overlaps > 0)

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
  let tm = Option.get (Ptm_tms.Registry.find "norec.x4") in
  QCheck2.Test.make ~count:120 ~print
    ~name:"sharded: random mixes + faults opacity-clean on both engines" gen
    (fun (w, (faults, seed)) ->
      let verdicts =
        List.map
          (fun engine ->
            let chk = Opacity_stream.create () in
            let m =
              mk_run tm ~engine ~faults
                ~observer:(Opacity_stream.on_entry chk)
                w
            in
            (* crashes can leave survivors spinning on a dead word-holder:
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
      ( "step-cost",
        [
          Alcotest.test_case "uncontended read and commit" `Quick
            test_step_costs;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "bank mixes opacity-clean (all sharded TMs)"
            `Quick test_cross_shard_opacity;
          of_q qcheck_cross_shard_opacity;
        ] );
      ( "engines",
        [
          Alcotest.test_case "Steps == Fibers" `Quick test_engines_under_faults;
          Alcotest.test_case "step form == direct form" `Quick
            test_step_vs_direct;
          Alcotest.test_case "twins agree under load" `Quick
            test_twins_under_load;
        ] );
      ( "revalidate",
        [
          Alcotest.test_case "only moved shards are re-sampled" `Quick
            test_selective_resample;
          Alcotest.test_case "a commit during the pass restarts it" `Quick
            test_overtaken_pass;
        ] );
      ( "explore",
        [
          Alcotest.test_case "stable window meets a hold to validate" `Quick
            test_dpor_validate_hold;
        ] );
    ]
