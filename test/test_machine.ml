(* Unit tests for the simulated shared-memory machine. *)

open Ptm_machine

let value = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* Value                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_projections () =
  Alcotest.(check int) "to_int" 7 (Value.to_int (Value.Int 7));
  Alcotest.(check bool) "to_bool" true (Value.to_bool (Value.Bool true));
  Alcotest.(check int) "to_pid" 3 (Value.to_pid (Value.Pid 3));
  let a, b = Value.to_pair (Value.Pair (Value.Int 1, Value.Bool false)) in
  Alcotest.check value "fst" (Value.Int 1) a;
  Alcotest.check value "snd" (Value.Bool false) b;
  Alcotest.check_raises "bad projection"
    (Invalid_argument "Value.to_int: got (Bool true)") (fun () ->
      ignore (Value.to_int (Value.Bool true)))

let test_value_equal () =
  Alcotest.(check bool)
    "structural" true
    (Value.equal
       (Value.Pair (Value.Int 1, Value.Pid 2))
       (Value.Pair (Value.Int 1, Value.Pid 2)));
  Alcotest.(check bool)
    "different" false
    (Value.equal (Value.Int 1) (Value.Int 2))

(* ------------------------------------------------------------------ *)
(* Primitive semantics                                                *)
(* ------------------------------------------------------------------ *)

(* Apply [p] as pid 0 to a fresh cell holding [cur] while a peer (pid 1)
   holds a load-link on it; with [~linked:true] pid 0 links first too.
   Returns (new state, response, whether the peer's link was invalidated),
   the peer's link probed afterwards by its own SC. *)
let apply ?(linked = false) p cur =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"x" cur in
  ignore (Memory.apply mem ~pid:1 a Primitive.Ll);
  if linked then ignore (Memory.apply mem ~pid:0 a Primitive.Ll);
  let resp = Memory.apply mem ~pid:0 a p in
  let st = Memory.peek mem a in
  let peer = Memory.apply mem ~pid:1 a (Primitive.Sc st) in
  (st, resp, not (Value.equal peer (Value.Bool true)))

let test_prim_read () =
  let st, resp, inval = apply Primitive.Read (Value.Int 5) in
  Alcotest.check value "state unchanged" (Value.Int 5) st;
  Alcotest.check value "response" (Value.Int 5) resp;
  Alcotest.(check bool) "no invalidate" false inval;
  let st, resp, inval = apply Primitive.Ll (Value.Int 5) in
  Alcotest.check value "ll state unchanged" (Value.Int 5) st;
  Alcotest.check value "ll response" (Value.Int 5) resp;
  Alcotest.(check bool) "ll keeps the peer's link" false inval

let test_prim_write () =
  let st, resp, inval = apply (Primitive.Write (Value.Int 9)) (Value.Int 5) in
  Alcotest.check value "state" (Value.Int 9) st;
  Alcotest.check value "unit response" Value.Unit resp;
  Alcotest.(check bool) "invalidates" true inval;
  let _, _, inval = apply (Primitive.Write (Value.Int 5)) (Value.Int 5) in
  Alcotest.(check bool) "an unchanging write still invalidates" true inval

let test_prim_cas_success () =
  let st, resp, inval =
    apply
      (Primitive.Cas { expected = Value.Int 5; desired = Value.Int 6 })
      (Value.Int 5)
  in
  Alcotest.check value "state" (Value.Int 6) st;
  Alcotest.check value "true" (Value.Bool true) resp;
  Alcotest.(check bool) "invalidates" true inval

let test_prim_cas_failure () =
  let st, resp, inval =
    apply
      (Primitive.Cas { expected = Value.Int 7; desired = Value.Int 6 })
      (Value.Int 5)
  in
  Alcotest.check value "state unchanged" (Value.Int 5) st;
  Alcotest.check value "false" (Value.Bool false) resp;
  Alcotest.(check bool) "no invalidate" false inval

let test_prim_tas () =
  let st, resp, inval = apply Primitive.Tas (Value.Bool false) in
  Alcotest.check value "set" (Value.Bool true) st;
  Alcotest.check value "old" (Value.Bool false) resp;
  Alcotest.(check bool) "invalidates on acquire" true inval;
  let st, resp, inval = apply Primitive.Tas (Value.Bool true) in
  Alcotest.check value "still set" (Value.Bool true) st;
  Alcotest.check value "old true" (Value.Bool true) resp;
  Alcotest.(check bool) "no change" false inval;
  Alcotest.check_raises "tas on a non-bool"
    (Invalid_argument "Value.to_bool: got (Int 0)") (fun () ->
      ignore (apply Primitive.Tas (Value.Int 0)))

let test_prim_faa () =
  let st, resp, inval = apply (Primitive.Faa 3) (Value.Int 10) in
  Alcotest.check value "state" (Value.Int 13) st;
  Alcotest.check value "old" (Value.Int 10) resp;
  Alcotest.(check bool) "nonzero add invalidates" true inval;
  let st, resp, inval = apply (Primitive.Faa 0) (Value.Int 10) in
  Alcotest.check value "faa 0 state" (Value.Int 10) st;
  Alcotest.check value "faa 0 old" (Value.Int 10) resp;
  Alcotest.(check bool) "faa 0 keeps the peer's link" false inval;
  let st, resp, _ = apply (Primitive.Faa 1) (Value.Int 1000) in
  Alcotest.check value "beyond the small-int cache" (Value.Int 1001) st;
  Alcotest.check value "old beyond the cache" (Value.Int 1000) resp;
  Alcotest.check_raises "faa on a non-int"
    (Invalid_argument "Value.to_int: got (Bool true)") (fun () ->
      ignore (apply (Primitive.Faa 1) (Value.Bool true)))

let test_prim_fas () =
  let st, resp, inval = apply (Primitive.Fas (Value.Pid 2)) (Value.Pid 0) in
  Alcotest.check value "state" (Value.Pid 2) st;
  Alcotest.check value "old" (Value.Pid 0) resp;
  Alcotest.(check bool) "invalidates" true inval

let test_prim_sc () =
  let st, resp, inval =
    apply ~linked:true (Primitive.Sc (Value.Int 1)) (Value.Int 0)
  in
  Alcotest.check value "state" (Value.Int 1) st;
  Alcotest.check value "ok" (Value.Bool true) resp;
  Alcotest.(check bool) "success invalidates" true inval;
  let st, resp, inval = apply (Primitive.Sc (Value.Int 1)) (Value.Int 0) in
  Alcotest.check value "unchanged" (Value.Int 0) st;
  Alcotest.check value "fail" (Value.Bool false) resp;
  Alcotest.(check bool) "failure keeps the peer's link" false inval

let test_prim_classes () =
  let open Primitive in
  Alcotest.(check bool) "read trivial" true (is_trivial Read);
  Alcotest.(check bool) "ll trivial" true (is_trivial Ll);
  Alcotest.(check bool)
    "write nontrivial" true
    (is_nontrivial (Write Value.Unit));
  Alcotest.(check bool)
    "cas conditional" true
    (is_conditional (Cas { expected = Value.Unit; desired = Value.Unit }));
  Alcotest.(check bool) "sc conditional" true (is_conditional (Sc Value.Unit));
  Alcotest.(check bool) "tas conditional" true (is_conditional Tas);
  Alcotest.(check bool) "faa not conditional" false (is_conditional (Faa 1));
  Alcotest.(check bool) "faa not rwc" false (is_rwc (Faa 1));
  Alcotest.(check bool) "fas not rwc" false (is_rwc (Fas Value.Unit));
  Alcotest.(check bool)
    "cas rwc" true
    (is_rwc (Cas { expected = Value.Unit; desired = Value.Unit }))

(* ------------------------------------------------------------------ *)
(* Memory + LL/SC links                                               *)
(* ------------------------------------------------------------------ *)

let test_memory_alloc () =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"x" (Value.Int 0) in
  let b = Memory.alloc mem ~owner:2 ~name:"y" (Value.Bool true) in
  Alcotest.(check int) "two cells" 2 (Memory.size mem);
  Alcotest.check value "x" (Value.Int 0) (Memory.peek mem a);
  Alcotest.check value "y" (Value.Bool true) (Memory.peek mem b);
  Alcotest.(check (option int)) "x unowned" None (Memory.owner mem a);
  Alcotest.(check (option int)) "y owned" (Some 2) (Memory.owner mem b);
  Alcotest.(check string) "name" "y" (Memory.name mem b)

(* A cell keeps its allocator's name and index; [Memory.name] formats
   [name[index]] when asked. *)
let test_memory_names () =
  let m = Machine.create ~nprocs:2 () in
  let mem = Machine.memory m in
  let s = Machine.alloc m ~name:"s" (Value.Int 0) in
  let xs = Machine.alloc_array m ~name:"x" 3 (Value.Int 7) in
  let o = Machine.alloc m ~owner:1 ~index:4 ~name:"o" Value.Unit in
  Alcotest.(check string) "scalar" "s" (Memory.name mem s);
  Alcotest.(check (list string))
    "array" [ "x[0]"; "x[1]"; "x[2]" ]
    (Array.to_list (Array.map (Memory.name mem) xs));
  Alcotest.(check (list int))
    "consecutive" [ s + 1; s + 2; s + 3 ] (Array.to_list xs);
  Array.iter
    (fun a -> Alcotest.check value "holds v" (Value.Int 7) (Memory.peek mem a))
    xs;
  Alcotest.(check string) "owned, indexed" "o[4]" (Memory.name mem o);
  Alcotest.(check (option int)) "owner kept" (Some 1) (Memory.owner mem o)

(* OSTM allocates its descriptor cells at commit, indexed by the
   transaction's id. *)
let test_ostm_descriptor_names () =
  let module R = Ptm_core.Runner.Make (Ptm_tms.Ostm) in
  let m = Machine.create ~nprocs:1 () in
  let ctx = R.init m ~nobjs:2 in
  let mem = Machine.memory m in
  let base = Memory.size mem in
  let ids = ref [] in
  let tx x =
    match
      R.atomically ctx ~pid:0 ~retries:0 (fun tx ->
          ids := R.tx_id tx :: !ids;
          R.write ctx tx x 5)
    with
    | Ok () -> ()
    | Error `Abort -> failwith "a solo transaction aborted"
  in
  Machine.spawn m 0 (fun () -> tx 0; tx 1);
  Sched.round_robin m;
  Machine.check_crashes m;
  let names id =
    List.map (fun k -> Printf.sprintf "ostm.%s[%d]" k id) [ "desc"; "w"; "r" ]
  in
  Alcotest.(check (list string))
    "one descriptor per commit"
    (List.concat_map names (List.rev !ids))
    (List.init (Memory.size mem - base) (fun i -> Memory.name mem (base + i)))

let test_memory_llsc () =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"x" (Value.Int 0) in
  (* p0 links, p1 writes, p0's SC must fail *)
  let _ = Memory.apply mem ~pid:0 a Primitive.Ll in
  let _ = Memory.apply mem ~pid:1 a (Primitive.Write (Value.Int 1)) in
  let resp = Memory.apply mem ~pid:0 a (Primitive.Sc (Value.Int 2)) in
  Alcotest.check value "sc fails" (Value.Bool false) resp;
  Alcotest.check value "unchanged" (Value.Int 1) (Memory.peek mem a);
  (* fresh link with no interference succeeds *)
  let _ = Memory.apply mem ~pid:0 a Primitive.Ll in
  let resp = Memory.apply mem ~pid:0 a (Primitive.Sc (Value.Int 2)) in
  Alcotest.check value "sc ok" (Value.Bool true) resp;
  Alcotest.check value "stored" (Value.Int 2) (Memory.peek mem a)

let test_memory_llsc_two_linkers () =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"x" (Value.Int 0) in
  let _ = Memory.apply mem ~pid:0 a Primitive.Ll in
  let _ = Memory.apply mem ~pid:1 a Primitive.Ll in
  let resp = Memory.apply mem ~pid:1 a (Primitive.Sc (Value.Int 5)) in
  Alcotest.check value "p1 sc ok" (Value.Bool true) resp;
  let resp = Memory.apply mem ~pid:0 a (Primitive.Sc (Value.Int 6)) in
  Alcotest.check value "p0 sc fails" (Value.Bool false) resp

let test_memory_failed_cas_keeps_links () =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"x" (Value.Int 0) in
  let _ = Memory.apply mem ~pid:0 a Primitive.Ll in
  let _ =
    Memory.apply mem ~pid:1 a
      (Primitive.Cas { expected = Value.Int 9; desired = Value.Int 1 })
  in
  let resp = Memory.apply mem ~pid:0 a (Primitive.Sc (Value.Int 2)) in
  Alcotest.check value "sc survives failed cas" (Value.Bool true) resp

(* ------------------------------------------------------------------ *)
(* Trace sinks: retention policy vs the global sequence counter        *)
(* ------------------------------------------------------------------ *)

let mk_faa_machine trace =
  let m = Machine.create ~trace ~nprocs:1 () in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  Machine.spawn m 0 (fun () ->
      for _ = 1 to 10 do
        ignore (Proc.faa c 1)
      done);
  Sched.round_robin m;
  Machine.check_crashes m;
  (m, c)

let test_trace_sink_off () =
  let m, c = mk_faa_machine Trace.Off in
  let tr = Machine.trace m in
  (* behaviour is unchanged; only the recording is elided *)
  Alcotest.check value "10 increments" (Value.Int 10)
    (Memory.peek (Machine.memory m) c);
  Alcotest.(check int) "events still counted" 10 (Trace.length tr);
  Alcotest.(check int) "nothing retained" 0 (Trace.stored tr);
  Alcotest.(check bool) "entries empty" true (Trace.entries tr = []);
  Alcotest.(check bool) "not recording" false (Trace.recording tr)

let test_trace_sink_ring () =
  let m, _ = mk_faa_machine (Trace.Ring 4) in
  let tr = Machine.trace m in
  Alcotest.(check int) "seq counter is global" 10 (Trace.length tr);
  Alcotest.(check int) "only the window retained" 4 (Trace.stored tr);
  Alcotest.(check int) "window starts at 6" 6 (Trace.first_seq tr);
  (* retained entries are the last four events, oldest first *)
  let seqs =
    List.filter_map
      (function Trace.Mem e -> Some e.Trace.seq | Trace.Note _ -> None)
      (Trace.entries tr)
  in
  Alcotest.(check (list int)) "seqs of the window" [ 6; 7; 8; 9 ] seqs;
  (match Trace.get tr 7 with
  | Trace.Mem e -> Alcotest.(check int) "get by seq" 7 e.Trace.seq
  | Trace.Note _ -> Alcotest.fail "expected a mem event");
  Alcotest.check_raises "evicted seq rejected"
    (Invalid_argument "Trace.get: seq not retained by this sink") (fun () ->
      ignore (Trace.get tr 3));
  (* iter_from clamps to the retained window *)
  let n = ref 0 in
  Trace.iter_from tr 0 (fun _ -> incr n);
  Alcotest.(check int) "iter_from clamped" 4 !n

let test_trace_sink_full_matches_ring_tail () =
  let m_full, _ = mk_faa_machine Trace.Full in
  let full = Machine.trace m_full in
  Alcotest.(check int) "full retains all" 10 (Trace.stored full);
  Alcotest.(check int) "full starts at 0" 0 (Trace.first_seq full);
  let tail_full =
    List.filteri (fun i _ -> i >= 6) (Trace.entries full)
  in
  let m_ring, _ = mk_faa_machine (Trace.Ring 4) in
  Alcotest.(check bool) "ring window = full tail" true
    (tail_full = Trace.entries (Machine.trace m_ring))

let test_trace_ring_capacity_positive () =
  Alcotest.check_raises "ring 0 rejected"
    (Invalid_argument "Trace.create: ring capacity must be positive")
    (fun () -> ignore (Trace.create ~sink:(Trace.Ring 0) ()))

(* ------------------------------------------------------------------ *)
(* Machine: processes, steps, scheduling                              *)
(* ------------------------------------------------------------------ *)

let test_machine_counter () =
  let m = Machine.create ~nprocs:3 () in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to 2 do
    Machine.spawn m pid (fun () ->
        for _ = 1 to 10 do
          ignore (Proc.faa c 1)
        done)
  done;
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.check value "30 increments" (Value.Int 30)
    (Memory.peek (Machine.memory m) c);
  Alcotest.(check int) "p0 steps" 10 (Machine.steps_of m 0);
  Alcotest.(check int) "events" 30 (Trace.length (Machine.trace m))

let test_machine_poised () =
  (* An enabled event is fixed when the process reaches it, but applied
     against the memory at schedule time. *)
  let m = Machine.create ~nprocs:2 () in
  let x = Machine.alloc m ~name:"x" (Value.Int 0) in
  let got = ref (-1) in
  Machine.spawn m 0 (fun () -> got := Proc.read_int x);
  Machine.spawn m 1 (fun () -> Proc.write x (Value.Int 42));
  (match Machine.poised m 0 with
  | Some { Proc.addr; prim } ->
      Alcotest.(check int) "poised on x" x addr;
      Alcotest.(check bool)
        "poised read" true
        (Primitive.equal prim Primitive.Read)
  | None -> Alcotest.fail "p0 should be poised");
  (* p1 writes first; p0's pending read then observes 42. *)
  ignore (Machine.step m 1);
  ignore (Machine.step m 0);
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.(check int) "read sees later write" 42 !got

let test_machine_pause_solo () =
  let m = Machine.create ~nprocs:1 () in
  let x = Machine.alloc m ~name:"x" (Value.Int 0) in
  Machine.spawn m 0 (fun () ->
      Proc.write x (Value.Int 1);
      Proc.pause ();
      Proc.write x (Value.Int 2));
  (match Sched.solo m 0 with
  | `Paused -> ()
  | `Done -> Alcotest.fail "expected pause");
  Alcotest.check value "first phase only" (Value.Int 1)
    (Memory.peek (Machine.memory m) x);
  (match Sched.solo m 0 with
  | `Done -> ()
  | `Paused -> Alcotest.fail "expected done");
  Alcotest.check value "second phase" (Value.Int 2)
    (Memory.peek (Machine.memory m) x)

let test_machine_spin_terminates () =
  (* A spinning process is eventually released by its peer under round-robin. *)
  let m = Machine.create ~nprocs:2 () in
  let flag = Machine.alloc m ~name:"flag" (Value.Bool false) in
  let out = ref 0 in
  Machine.spawn m 0 (fun () ->
      while not (Proc.read_bool flag) do
        ()
      done;
      out := 1);
  Machine.spawn m 1 (fun () -> Proc.write flag (Value.Bool true));
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.(check int) "released" 1 !out

let test_machine_out_of_steps () =
  let m = Machine.create ~nprocs:1 () in
  let flag = Machine.alloc m ~name:"flag" (Value.Bool false) in
  Machine.spawn m 0 (fun () ->
      while not (Proc.read_bool flag) do
        ()
      done);
  Alcotest.check_raises "spin forever" Sched.Out_of_steps (fun () ->
      Sched.round_robin ~max_steps:1000 m)

let test_machine_crash_surfaces () =
  let m = Machine.create ~nprocs:1 () in
  Machine.spawn m 0 (fun () -> failwith "boom");
  Sched.round_robin m;
  (match Machine.status m 0 with
  | Machine.Crashed _ -> ()
  | _ -> Alcotest.fail "expected crash status");
  Alcotest.check_raises "reraises" (Failure "boom") (fun () ->
      Machine.check_crashes m)

let test_machine_script () =
  let m = Machine.create ~nprocs:2 () in
  let x = Machine.alloc m ~name:"x" (Value.Int 0) in
  Machine.spawn m 0 (fun () -> Proc.write x (Value.Int 1));
  Machine.spawn m 1 (fun () -> Proc.write x (Value.Int 2));
  Sched.script m [ 1; 0 ];
  Alcotest.check value "p0 wrote last" (Value.Int 1)
    (Memory.peek (Machine.memory m) x);
  Alcotest.(check bool) "all done" true (Machine.all_done m)

let test_machine_notes_are_free () =
  let m = Machine.create ~nprocs:1 () in
  let x = Machine.alloc m ~name:"x" (Value.Int 0) in
  Machine.spawn m 0 (fun () ->
      Proc.note (Trace.Label "before");
      Proc.write x (Value.Int 1);
      Proc.note (Trace.Label "after"));
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.(check int) "one step only" 1 (Machine.steps_of m 0);
  let labels =
    List.filter_map
      (function
        | Trace.Note { note = Trace.Label s; _ } -> Some s | _ -> None)
      (Trace.entries (Machine.trace m))
  in
  Alcotest.(check (list string)) "notes in order" [ "before"; "after" ] labels;
  (* note ordering relative to the event *)
  match Trace.entries (Machine.trace m) with
  | [
   Trace.Note { seq = 0; _ }; Trace.Mem { seq = 1; _ };
   Trace.Note { seq = 2; _ };
  ] ->
      ()
  | _ -> Alcotest.fail "unexpected trace shape"

let test_machine_double_spawn () =
  let m = Machine.create ~nprocs:1 () in
  Machine.spawn m 0 (fun () -> ());
  Alcotest.check_raises "double spawn"
    (Invalid_argument "Machine.spawn: process already spawned") (fun () ->
      Machine.spawn m 0 (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Determinism                                                        *)
(* ------------------------------------------------------------------ *)

let run_once seed =
  let m = Machine.create ~nprocs:4 () in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to 3 do
    Machine.spawn m pid (fun () ->
        for _ = 1 to 5 do
          let v = Proc.read_int c in
          Proc.write c (Value.Int (v + 1))
        done)
  done;
  Sched.random ~seed m;
  Value.to_int (Memory.peek (Machine.memory m) c)

let test_machine_determinism () =
  Alcotest.(check int) "same seed same result" (run_once 42) (run_once 42);
  (* lossy non-atomic increments: result is schedule-dependent but
     deterministic; check a different seed still executes fine *)
  let r = run_once 7 in
  Alcotest.(check bool) "in range" true (r >= 1 && r <= 20)

(* ------------------------------------------------------------------ *)
(* Reset, restart, snapshots, feed: the machinery behind the          *)
(* explorer's machine pool and checkpointed replay.                   *)
(* ------------------------------------------------------------------ *)

let test_memory_reset_truncate () =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"a" (Value.Int 1) in
  let b = Memory.alloc mem ~name:"b" (Value.Bool false) in
  ignore (Memory.apply mem ~pid:0 a (Primitive.Write (Value.Int 9)));
  ignore (Memory.apply mem ~pid:0 b Primitive.Ll);
  Memory.reset mem;
  Alcotest.check value "value restored" (Value.Int 1) (Memory.peek mem a);
  (* the load-link on b was cleared: its SC must fail *)
  let resp = Memory.apply mem ~pid:0 b (Primitive.Sc (Value.Bool true)) in
  Alcotest.check value "links cleared" (Value.Bool false) resp;
  let c = Memory.alloc mem ~name:"c" Value.Unit in
  Memory.truncate mem 2;
  Alcotest.(check int) "truncated" 2 (Memory.size mem);
  let c' = Memory.alloc mem ~name:"c2" Value.Unit in
  Alcotest.(check int) "addresses reused" c c';
  Alcotest.check_raises "beyond size"
    (Invalid_argument "Memory.truncate") (fun () -> Memory.truncate mem 7)

let test_memory_snapshot_restore () =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"a" (Value.Int 0) in
  let b = Memory.alloc mem ~name:"b" (Value.Int 0) in
  ignore (Memory.apply mem ~pid:1 a Primitive.Ll);
  ignore (Memory.apply mem ~pid:0 b (Primitive.Write (Value.Int 5)));
  let s = Memory.snapshot_make () in
  Memory.snapshot_into mem s;
  ignore (Memory.apply mem ~pid:0 a (Primitive.Write (Value.Int 7)));
  ignore (Memory.apply mem ~pid:0 b (Primitive.Write (Value.Int 8)));
  Memory.restore_from mem s;
  Alcotest.check value "a restored" (Value.Int 0) (Memory.peek mem a);
  Alcotest.check value "b restored" (Value.Int 5) (Memory.peek mem b);
  (* pid 1's load-link on a was captured and restored: its SC succeeds *)
  let resp = Memory.apply mem ~pid:1 a (Primitive.Sc (Value.Int 3)) in
  Alcotest.check value "link restored" (Value.Bool true) resp;
  ignore (Memory.alloc mem ~name:"c" Value.Unit);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Memory.restore_from: size mismatch") (fun () ->
      Memory.restore_from mem s)

let mk_counter ?(rounds = 3) nprocs () =
  let m = Machine.create ~nprocs () in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  for pid = 0 to nprocs - 1 do
    Machine.spawn m pid (fun () ->
        for _ = 1 to rounds do
          ignore (Proc.faa c 1)
        done)
  done;
  (m, c)

let test_machine_restart_identical () =
  let m, c = mk_counter 2 () in
  Sched.round_robin m;
  let v1 = Memory.peek (Machine.memory m) c in
  let entries1 = Trace.entries (Machine.trace m) in
  let steps1 = Machine.steps_of m 0 in
  Machine.restart m;
  Alcotest.(check int) "steps cleared" 0 (Machine.steps_of m 0);
  Alcotest.(check int) "trace cleared" 0 (Trace.length (Machine.trace m));
  Alcotest.check value "memory re-initialised" (Value.Int 0)
    (Memory.peek (Machine.memory m) c);
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.check value "same final value" v1
    (Memory.peek (Machine.memory m) c);
  Alcotest.(check bool) "identical trace" true
    (entries1 = Trace.entries (Machine.trace m));
  Alcotest.(check int) "same step count" steps1 (Machine.steps_of m 0)

let test_machine_restart_midrun_alloc () =
  (* A program that allocates during execution (like OSTM's transaction
     descriptors) must re-allocate at the same addresses on every run. *)
  let m = Machine.create ~nprocs:1 () in
  let c = Machine.alloc m ~name:"c" (Value.Int 0) in
  let got = ref (-1) in
  Machine.spawn m 0 (fun () ->
      ignore (Proc.read_int c);
      let d = Machine.alloc m ~name:"d" (Value.Int 7) in
      got := d;
      Proc.write d (Value.Int 8));
  Sched.round_robin m;
  let size1 = Memory.size (Machine.memory m) in
  let d1 = !got in
  Machine.restart m;
  Alcotest.(check int) "mid-run cell forgotten" (size1 - 1)
    (Memory.size (Machine.memory m));
  Sched.round_robin m;
  Machine.check_crashes m;
  Alcotest.(check int) "same size after re-run" size1
    (Memory.size (Machine.memory m));
  Alcotest.(check int) "same address" d1 !got

let test_machine_feed () =
  (* Record one run's responses, then drive a second machine through the
     same prefix with [feed]: the trace is rebuilt exactly and the
     continuations advance, without touching memory. *)
  let m1, c = mk_counter 2 () in
  let scheds = [ 0; 1; 0; 1; 0; 1 ] in
  let tr = Machine.trace m1 in
  let log =
    List.map
      (fun pid ->
        let seq = Trace.length tr in
        ignore (Machine.step m1 pid);
        (* the changed flag comes from the step's trace entry *)
        let changed = ref false in
        Trace.iter_from tr seq (function
          | Trace.Mem e -> changed := e.Trace.changed
          | Trace.Note _ -> ());
        (pid, Machine.last_resp m1, !changed))
      scheds
  in
  let m2, c2 = mk_counter 2 () in
  List.iter (fun (pid, resp, changed) -> Machine.feed m2 pid resp ~changed) log;
  Alcotest.(check bool) "identical trace" true
    (Trace.entries (Machine.trace m1) = Trace.entries (Machine.trace m2));
  Alcotest.(check int) "steps counted" (Machine.steps_of m1 0)
    (Machine.steps_of m2 0);
  Alcotest.check value "memory untouched" (Value.Int 0)
    (Memory.peek (Machine.memory m2) c2);
  ignore c

(* ------------------------------------------------------------------ *)
(* RMR accounting                                                     *)
(* ------------------------------------------------------------------ *)

(* Apply and record one event the way a recording machine does: the
   [changed] flag compares the cell around the apply. *)
let apply_recorded mem tr ~pid addr prim =
  let before = Memory.peek mem addr in
  let resp = Memory.apply mem ~pid addr prim in
  Trace.add_mem tr ~pid ~addr prim resp
    (not (Value.equal before (Memory.peek mem addr)))

let mk_rmr_trace ops =
  (* ops: (pid, which, prim) list applied to a 2-cell memory where cell 1 is
     owned by process 1. *)
  let mem = Memory.create () in
  let a0 = Memory.alloc mem ~name:"u" (Value.Int 0) in
  let a1 = Memory.alloc mem ~owner:1 ~name:"v" (Value.Int 0) in
  let tr = Trace.create () in
  List.iter
    (fun (pid, which, prim) ->
      let addr = if which = 0 then a0 else a1 in
      apply_recorded mem tr ~pid addr prim)
    ops;
  (mem, tr)

let test_rmr_dsm () =
  let mem, tr =
    mk_rmr_trace
      [
        (0, 1, Primitive.Read) (* remote: owned by 1 *);
        (1, 1, Primitive.Read) (* local *);
        (1, 1, Primitive.Write (Value.Int 1)) (* local *);
        (0, 0, Primitive.Read) (* unowned: remote *);
      ]
  in
  let c = Rmr.count Rmr.Dsm ~nprocs:2 mem tr in
  Alcotest.(check int) "total" 2 c.Rmr.total;
  Alcotest.(check int) "p0" 2 c.Rmr.per_pid.(0);
  Alcotest.(check int) "p1" 0 c.Rmr.per_pid.(1)

let test_rmr_write_through () =
  let mem, tr =
    mk_rmr_trace
      [
        (0, 0, Primitive.Read) (* miss: RMR, caches *);
        (0, 0, Primitive.Read) (* cached: local *);
        (1, 0, Primitive.Write (Value.Int 1)) (* write: RMR, invalidates *);
        (0, 0, Primitive.Read) (* invalidated: RMR *);
        (1, 0, Primitive.Write (Value.Int 2)) (* write: RMR again (WT) *);
      ]
  in
  let c = Rmr.count Rmr.Cc_write_through ~nprocs:2 mem tr in
  Alcotest.(check int) "total" 4 c.Rmr.total;
  Alcotest.(check int) "p0" 2 c.Rmr.per_pid.(0);
  Alcotest.(check int) "p1" 2 c.Rmr.per_pid.(1)

let test_rmr_write_back () =
  let mem, tr =
    mk_rmr_trace
      [
        (0, 0, Primitive.Write (Value.Int 1)) (* RMR, exclusive(0) *);
        (0, 0, Primitive.Write (Value.Int 2)) (* local: exclusive *);
        (0, 0, Primitive.Read) (* local: exclusive covers reads *);
        (1, 0, Primitive.Read) (* RMR: demote to shared *);
        (0, 0, Primitive.Read) (* local: shared *);
        (0, 0, Primitive.Write (Value.Int 3)) (* RMR: needs exclusive *);
        (1, 0, Primitive.Read) (* RMR: invalidated *);
      ]
  in
  let c = Rmr.count Rmr.Cc_write_back ~nprocs:2 mem tr in
  Alcotest.(check int) "total" 4 c.Rmr.total;
  Alcotest.(check int) "p0" 2 c.Rmr.per_pid.(0);
  Alcotest.(check int) "p1" 2 c.Rmr.per_pid.(1)

(* Regression: a write-through store must not invalidate the writer's own
   cached copy — the store updates the line in place on its way to memory.
   A writer re-reading its own location right after the store is local. *)
let test_rmr_write_through_writer_keeps_line () =
  let mem, tr =
    mk_rmr_trace
      [
        (0, 0, Primitive.Write (Value.Int 1)) (* RMR (WT always) *);
        (0, 0, Primitive.Read) (* own line still valid: local *);
        (0, 0, Primitive.Read) (* still local *);
        (1, 0, Primitive.Read) (* miss: RMR, caches *);
        (0, 0, Primitive.Write (Value.Int 2)) (* RMR; invalidates p1 only *);
        (0, 0, Primitive.Read) (* local *);
        (1, 0, Primitive.Read) (* invalidated: RMR *);
      ]
  in
  let c = Rmr.count Rmr.Cc_write_through ~nprocs:2 mem tr in
  Alcotest.(check int) "total" 4 c.Rmr.total;
  Alcotest.(check int) "p0" 2 c.Rmr.per_pid.(0);
  Alcotest.(check int) "p1" 2 c.Rmr.per_pid.(1)

let test_rmr_failed_cas_is_write_access () =
  let mem, tr =
    mk_rmr_trace
      [
        (0, 0, Primitive.Read) (* RMR; p0 caches *);
        (1, 0, Primitive.Cas { expected = Value.Int 99; desired = Value.Int 1 });
        (* failed CAS: still a write access, invalidates p0 in WT *)
        (0, 0, Primitive.Read) (* RMR again *);
      ]
  in
  let c = Rmr.count Rmr.Cc_write_through ~nprocs:2 mem tr in
  Alcotest.(check int) "total" 3 c.Rmr.total

let test_rmr_local_spin_is_free () =
  (* Spinning on a cached location costs one RMR total in CC models. *)
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"spin" (Value.Bool false) in
  let tr = Trace.create () in
  for _ = 1 to 100 do
    apply_recorded mem tr ~pid:0 a Primitive.Read
  done;
  let wt = Rmr.count Rmr.Cc_write_through ~nprocs:1 mem tr in
  let wb = Rmr.count Rmr.Cc_write_back ~nprocs:1 mem tr in
  Alcotest.(check int) "wt one miss" 1 wt.Rmr.total;
  Alcotest.(check int) "wb one miss" 1 wb.Rmr.total

let rmr_stream_matches_offline ~early () =
  (* The incremental accountant must agree with the offline replay on every
     model, over a randomized event sequence mixing trivial and nontrivial
     primitives, owned and unowned cells. The streams are created when
     [early] of the 6 cells exist; the others are allocated one every 50
     events from the middle of the run on, as OSTM allocates descriptors
     under [ptm load --rmr]. *)
  let rng = Random.State.make [| 421 |] in
  let mem = Memory.create () in
  let alloc i =
    let owner = if i mod 2 = 0 then Some (i mod 3) else None in
    Memory.alloc mem ?owner ~name:(Printf.sprintf "s%d" i) (Value.Int 0)
  in
  let addrs = ref (Array.init early alloc) in
  let tr = Trace.create () in
  let nprocs = 3 in
  let streams =
    List.map
      (fun m -> (m, Rmr.Stream.create m ~nprocs mem))
      Rmr.all_models
  in
  for i = 1 to 500 do
    let n = Array.length !addrs in
    if n < 6 && i > 250 && i mod 50 = 1 then
      addrs := Array.append !addrs [| alloc n |];
    let pid = Random.State.int rng nprocs in
    let addr = !addrs.(Random.State.int rng (Array.length !addrs)) in
    let prim =
      match Random.State.int rng 4 with
      | 0 -> Primitive.Read
      | 1 -> Primitive.Write (Value.Int (Random.State.int rng 5))
      | 2 ->
          Primitive.Cas
            { expected = Value.Int 0; desired = Value.Int (Random.State.int rng 5) }
      | _ -> Primitive.Ll
    in
    apply_recorded mem tr ~pid addr prim;
    List.iter
      (fun (_, s) ->
        Rmr.Stream.feed s ~pid ~addr ~trivial:(Primitive.is_trivial prim))
      streams
  done;
  Alcotest.(check int) "every cell allocated" 6 (Memory.size mem);
  List.iter
    (fun (m, s) ->
      let offline = Rmr.count m ~nprocs mem tr in
      let online = Rmr.Stream.counts s in
      Alcotest.(check int)
        (Rmr.model_name m ^ " total")
        offline.Rmr.total online.Rmr.total;
      Alcotest.(check (array int))
        (Rmr.model_name m ^ " per pid")
        offline.Rmr.per_pid online.Rmr.per_pid)
    streams

(* Bad input to the accountant is a typed error naming the value and its
   range, raised before the simulator changes. *)
let test_rmr_rejects_nprocs () =
  let mem = Memory.create () in
  Alcotest.check_raises "nprocs 0"
    (Invalid_argument "Rmr.Stream.create: nprocs 0, need >= 1") (fun () ->
      ignore (Rmr.Stream.create Rmr.Dsm ~nprocs:0 mem))

let test_rmr_rejects_pid () =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~owner:0 ~name:"x" (Value.Int 0) in
  List.iter
    (fun m ->
      let s = Rmr.Stream.create m ~nprocs:2 mem in
      List.iter
        (fun pid ->
          Alcotest.check_raises
            (Printf.sprintf "%s pid %d" (Rmr.model_name m) pid)
            (Invalid_argument (Printf.sprintf "Rmr: pid %d outside [0, 2)" pid))
            (fun () -> Rmr.Stream.feed s ~pid ~addr:a ~trivial:true))
        [ 2; -1 ];
      Alcotest.(check int) (Rmr.model_name m ^ " nothing charged") 0
        (Rmr.Stream.counts s).Rmr.total)
    Rmr.all_models;
  let tr = Trace.create () in
  apply_recorded mem tr ~pid:2 a Primitive.Read;
  Alcotest.check_raises "count over a trace holding pid 2"
    (Invalid_argument "Rmr: pid 2 outside [0, 2)") (fun () ->
      ignore (Rmr.count Rmr.Cc_write_back ~nprocs:2 mem tr))

let test_rmr_rejects_address () =
  let mem = Memory.create () in
  ignore (Memory.alloc mem ~owner:0 ~name:"x" (Value.Int 0) : Memory.addr);
  ignore (Memory.alloc mem ~name:"y" (Value.Int 0) : Memory.addr);
  let outside addr =
    Invalid_argument
      (Printf.sprintf "Rmr: address %d outside the memory [0, 2)" addr)
  in
  let tr = Trace.create () in
  Trace.add_mem tr ~pid:0 ~addr:2 Primitive.Read Value.Unit false;
  List.iter
    (fun m ->
      let name = Rmr.model_name m in
      let s = Rmr.Stream.create m ~nprocs:2 mem in
      List.iter
        (fun (addr, trivial) ->
          Alcotest.check_raises
            (Printf.sprintf "%s feed address %d" name addr)
            (outside addr)
            (fun () -> Rmr.Stream.feed s ~pid:0 ~addr ~trivial))
        [ (2, true); (2, false); (-1, true) ];
      Alcotest.(check int) (name ^ " nothing charged") 0
        (Rmr.Stream.counts s).Rmr.total;
      Alcotest.check_raises (name ^ " count") (outside 2) (fun () ->
          ignore (Rmr.count m ~nprocs:2 mem tr));
      Alcotest.check_raises (name ^ " iter") (outside 2) (fun () ->
          Rmr.iter m mem tr ignore))
    Rmr.all_models

let () =
  Alcotest.run "machine"
    [
      ( "value",
        [
          Alcotest.test_case "projections" `Quick test_value_projections;
          Alcotest.test_case "equality" `Quick test_value_equal;
        ] );
      ( "primitive",
        [
          Alcotest.test_case "read" `Quick test_prim_read;
          Alcotest.test_case "write" `Quick test_prim_write;
          Alcotest.test_case "cas success" `Quick test_prim_cas_success;
          Alcotest.test_case "cas failure" `Quick test_prim_cas_failure;
          Alcotest.test_case "tas" `Quick test_prim_tas;
          Alcotest.test_case "faa" `Quick test_prim_faa;
          Alcotest.test_case "fas" `Quick test_prim_fas;
          Alcotest.test_case "sc" `Quick test_prim_sc;
          Alcotest.test_case "classification" `Quick test_prim_classes;
        ] );
      ( "memory",
        [
          Alcotest.test_case "alloc" `Quick test_memory_alloc;
          Alcotest.test_case "names on demand" `Quick test_memory_names;
          Alcotest.test_case "ostm descriptor names" `Quick
            test_ostm_descriptor_names;
          Alcotest.test_case "ll/sc invalidation" `Quick test_memory_llsc;
          Alcotest.test_case "ll/sc two linkers" `Quick
            test_memory_llsc_two_linkers;
          Alcotest.test_case "failed cas keeps links" `Quick
            test_memory_failed_cas_keeps_links;
        ] );
      ( "trace-sinks",
        [
          Alcotest.test_case "off counts but retains nothing" `Quick
            test_trace_sink_off;
          Alcotest.test_case "ring keeps the last N" `Quick
            test_trace_sink_ring;
          Alcotest.test_case "ring window equals full tail" `Quick
            test_trace_sink_full_matches_ring_tail;
          Alcotest.test_case "ring capacity must be positive" `Quick
            test_trace_ring_capacity_positive;
        ] );
      ( "machine",
        [
          Alcotest.test_case "counter" `Quick test_machine_counter;
          Alcotest.test_case "poised semantics" `Quick test_machine_poised;
          Alcotest.test_case "pause + solo" `Quick test_machine_pause_solo;
          Alcotest.test_case "spin terminates" `Quick
            test_machine_spin_terminates;
          Alcotest.test_case "out of steps" `Quick test_machine_out_of_steps;
          Alcotest.test_case "crash surfaces" `Quick test_machine_crash_surfaces;
          Alcotest.test_case "script" `Quick test_machine_script;
          Alcotest.test_case "notes are free" `Quick test_machine_notes_are_free;
          Alcotest.test_case "double spawn" `Quick test_machine_double_spawn;
          Alcotest.test_case "determinism" `Quick test_machine_determinism;
          Alcotest.test_case "memory reset + truncate" `Quick
            test_memory_reset_truncate;
          Alcotest.test_case "memory snapshot/restore" `Quick
            test_memory_snapshot_restore;
          Alcotest.test_case "restart is identical" `Quick
            test_machine_restart_identical;
          Alcotest.test_case "restart with mid-run alloc" `Quick
            test_machine_restart_midrun_alloc;
          Alcotest.test_case "feed rebuilds a prefix" `Quick
            test_machine_feed;
        ] );
      ( "rmr",
        [
          Alcotest.test_case "dsm" `Quick test_rmr_dsm;
          Alcotest.test_case "write-through" `Quick test_rmr_write_through;
          Alcotest.test_case "write-back" `Quick test_rmr_write_back;
          Alcotest.test_case "write-through writer keeps own line" `Quick
            test_rmr_write_through_writer_keeps_line;
          Alcotest.test_case "failed cas is write access" `Quick
            test_rmr_failed_cas_is_write_access;
          Alcotest.test_case "local spin free" `Quick
            test_rmr_local_spin_is_free;
          Alcotest.test_case "stream matches offline" `Quick
            (rmr_stream_matches_offline ~early:6);
          Alcotest.test_case "stream created before later cells" `Quick
            (rmr_stream_matches_offline ~early:1);
          Alcotest.test_case "rejects nprocs < 1" `Quick
            test_rmr_rejects_nprocs;
          Alcotest.test_case "rejects pid outside [0, nprocs)" `Quick
            test_rmr_rejects_pid;
          Alcotest.test_case "rejects address outside the memory" `Quick
            test_rmr_rejects_address;
        ] );
    ]
