(* Allocation pins for the machine's per-event path.

   [Gc.minor_words] is a cumulative allocation counter (collections don't
   reset it), so a per-call cost of p words shows up as delta(N) = c + N*p
   for a per-run constant c. Measuring two run lengths cancels c and pins p
   exactly, with no tolerance:
   - [Memory.apply] allocates nothing for any primitive whose response is a
     bool, unit or small int (the preallocated [Value] constructors);
   - [Machine.step] on the Steps engine with the trace sink off allocates
     nothing: the parked outcome is stored unboxed, so a tuple-returning
     apply (or any other per-event allocation) on that path fails here;
   - on the Fibers engine a direct read step and a note cost a fixed
     number of words: the request, the effect, the continuation, the
     parked outcome and the closure that resumes it;
   - a step-instance var's [set] allocates nothing while the undo trail is
     off, and saving and restoring a node into a grown buffer allocate
     nothing. *)

open Ptm_machine

let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* delta(40k) - delta(10k) over 30k calls, after a short warm-up run so any
   one-time lazy initialization lands outside the measured windows. *)
let words_per_call run =
  run 64;
  let d1 = minor_delta (fun () -> run 10_000) in
  let d4 = minor_delta (fun () -> run 40_000) in
  (d4 -. d1) /. 30_000.

(* Each case is a short cycle of applications that returns its cell to the
   starting state, so the cycle can repeat indefinitely with responses that
   stay inside the small-int cache. The primitives are built once, outside
   the measured loop. *)
let apply_cases =
  let i0 = Value.Int 0 and i1 = Value.Int 1 in
  let cas e d = Primitive.Cas { expected = e; desired = d } in
  [
    ("read", i0, [ Primitive.Read ]);
    ("ll", i0, [ Primitive.Ll ]);
    ("write", i0, [ Primitive.Write i1; Primitive.Write i0 ]);
    ("fas", i0, [ Primitive.Fas i1; Primitive.Fas i0 ]);
    ("cas success", i0, [ cas i0 i1; cas i1 i0 ]);
    ("cas failure", i0, [ cas i1 i0 ]);
    ("tas", Value.Bool false, [ Primitive.Tas; Primitive.Write Value.false_ ]);
    ("tas on true", Value.Bool true, [ Primitive.Tas ]);
    ("faa", i0, [ Primitive.Faa 1; Primitive.Faa (-1) ]);
    ("faa 0", i0, [ Primitive.Faa 0 ]);
    ("sc success", i0, [ Primitive.Ll; Primitive.Sc i1; Primitive.Ll; Primitive.Sc i0 ]);
    ("sc failure", i0, [ Primitive.Sc i1 ]);
  ]

let test_apply_zero_alloc () =
  List.iter
    (fun (name, init, cycle) ->
      let mem = Memory.create () in
      let a = Memory.alloc mem ~name:"x" init in
      let cycle = Array.of_list cycle in
      let len = Array.length cycle in
      let run n =
        for i = 0 to (n * len) - 1 do
          ignore (Memory.apply mem ~pid:0 a (Array.unsafe_get cycle (i mod len)))
        done
      in
      Alcotest.(check (float 0.))
        (name ^ ": minor words per Memory.apply")
        0.
        (words_per_call run /. float_of_int len))
    apply_cases

(* A statically-constructed spinner: every step reads [addr], and the
   continuation returns the same cyclic outcome cell, so the program
   contributes zero allocation per step — anything measured comes from the
   machine. *)
let spawn_spinner m addr =
  Machine.spawn_step m 0 (fun _k ->
      let rec o =
        Proc.Wants_mem ({ Proc.addr; prim = Primitive.Read }, fun _ -> o)
      in
      o)

let step_words m =
  words_per_call (fun n ->
      for _ = 1 to n do
        ignore (Machine.step m 0 : Machine.step_result)
      done)

let test_step_zero_alloc () =
  let m = Machine.create ~trace:Trace.Off ~engine:Machine.Steps ~nprocs:1 () in
  let addr = Machine.alloc m ~name:"x" (Value.Int 0) in
  spawn_spinner m addr;
  Alcotest.(check (float 0.))
    "minor words per Machine.step (Steps, trace off)" 0. (step_words m)

(* Words per [Machine.step] of a Fibers process that runs [body] on one
   cell forever, with the trace off. *)
let fiber_step_words body =
  let m = Machine.create ~trace:Trace.Off ~nprocs:1 () in
  let addr = Machine.alloc m ~name:"x" (Value.Int 0) in
  Machine.spawn m 0 (fun () -> body addr);
  step_words m

let rec read_forever addr =
  ignore (Proc.read addr : Value.t);
  read_forever addr

let note = Trace.Label "pin"

let rec note_and_read_forever addr =
  Proc.note note;
  ignore (Proc.read addr : Value.t);
  note_and_read_forever addr

(* A direct read: the request, the [Apply] effect, the continuation, the
   parked [Wants_mem] and the closure that resumes the continuation. The
   handler's cases are built once per process, not once per effect. *)
let fiber_read_words = 15.

(* A note drained inside a step: the [Note] effect, the continuation, the
   parked [Wants_note] and its resuming closure. *)
let fiber_note_words = 12.

let test_fiber_read_alloc () =
  Alcotest.(check (float 0.))
    "minor words per Machine.step (Fibers read, trace off)" fiber_read_words
    (fiber_step_words read_forever)

let test_fiber_note_alloc () =
  Alcotest.(check (float 0.))
    "minor words per note (Fibers, trace off)" fiber_note_words
    (fiber_step_words note_and_read_forever -. fiber_step_words read_forever)

(* Outside a search the trail is off, and a step-instance var's [set] is a
   plain store. *)
let test_var_set_zero_alloc () =
  let v = Proc.Step.var 0 in
  let run n =
    for i = 1 to n do
      Proc.Step.set v i
    done
  in
  Alcotest.(check (float 0.))
    "minor words per Proc.Step.set (trail off)" 0. (words_per_call run)

(* A node is saved into a preallocated buffer and restored from it: once
   the buffer's memory snapshot has grown, neither allocates. *)
let test_save_restore_zero_alloc () =
  let m = Machine.create ~trace:Trace.Off ~engine:Machine.Steps ~nprocs:1 () in
  let addr = Machine.alloc m ~name:"x" (Value.Int 0) in
  spawn_spinner m addr;
  let sv = Machine.saved_make m in
  let run n =
    for _ = 1 to n do
      Machine.save m sv;
      Machine.restore m sv
    done
  in
  Alcotest.(check (float 0.))
    "minor words per Machine.save + Machine.restore" 0. (words_per_call run)

let () =
  Alcotest.run "perf-alloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "Memory.apply allocates nothing" `Quick
            test_apply_zero_alloc;
          Alcotest.test_case "Machine.step allocates nothing" `Quick
            test_step_zero_alloc;
          Alcotest.test_case "Fibers read step allocates 15 words" `Quick
            test_fiber_read_alloc;
          Alcotest.test_case "Fibers note allocates 12 words" `Quick
            test_fiber_note_alloc;
          Alcotest.test_case "Proc.Step.set allocates nothing" `Quick
            test_var_set_zero_alloc;
          Alcotest.test_case "save and restore allocate nothing" `Quick
            test_save_restore_zero_alloc;
        ] );
    ]
