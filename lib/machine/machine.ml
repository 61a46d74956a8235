type pid = int

type engine = Fibers | Steps

type status = Idle | Runnable | Terminated | Halted | Crashed of exn

type step_result = [ `Progress | `Paused | `Done ]

exception Invariant of { pid : int; slot : int; seq : int; what : string }

let () =
  Printexc.register_printer (function
    | Invariant { pid; slot; seq; what } ->
        Some
          (Printf.sprintf
             "Machine.Invariant(pid %d, slot %d, schedule index %d: %s)" pid
             slot seq what)
    | _ -> None)

let no_plan : Fault.spec array = [||]
let no_aborts : int array = [||]

(* A parked process is either a fiber outcome (effect-handler backend) or a
   step-machine outcome (closure backend); the constructors of the two
   outcome types mirror each other, so every case analysis below treats them
   through parallel arms. *)
type pstate =
  | P_idle
  | F of Proc.outcome
  | S of Proc.Step.outcome

type prog =
  | Prog_none
  | Prog_fun of (unit -> unit)
  | Prog_step of unit Proc.Step.t

type slot = {
  mutable state : pstate;
  mutable steps : int;
  mutable scheds : int;  (* scheduled slots consumed (steps + pauses + skips) *)
  mutable stall_left : int;  (* remaining no-op slots of an active stall *)
  mutable halted : bool;  (* crash-stopped by a fault; never runs again *)
  mutable prog : prog;  (* retained for [restart] *)
  (* Installed fault plan for this pid: Crash/Stall specs sorted by [at]
     with a cursor, Abort op indices sorted (consulted by the runner via
     [abort_due]). Like [prog], the plan survives [reset]/[restart]; only
     the dynamic state (cursor, stall, halt) is cleared. *)
  mutable plan : Fault.spec array;
  mutable f_next : int;
  mutable abort_plan : int array;
}

type t = {
  memory : Memory.t;
  trace : Trace.t;
  engine : engine;
  procs : slot array;
  spawn_seq : int array;  (* pids in first-spawn order *)
  mutable nspawned : int;
  (* Memory size just before the first program ran: [reset] truncates back
     to it, so cells allocated by program code (rather than by set-up) are
     re-allocated at the same addresses when the programs re-run. *)
  mutable base_cells : int;
  (* Response of the last executed memory step ({!last_resp}). *)
  mutable last_resp : Value.t;
  (* Some program runs in a fiber, whose continuations are one-shot: such
     a machine cannot be restored to a saved node. *)
  mutable fibers : bool;
}

let create ?(trace = Trace.Full) ?(engine = Fibers) ~nprocs () =
  {
    memory = Memory.create ();
    trace = Trace.create ~sink:trace ();
    engine;
    procs =
      Array.init nprocs (fun _ ->
          {
            state = P_idle;
            steps = 0;
            scheds = 0;
            stall_left = 0;
            halted = false;
            prog = Prog_none;
            plan = no_plan;
            f_next = 0;
            abort_plan = no_aborts;
          });
    spawn_seq = Array.make (max 1 nprocs) 0;
    nspawned = 0;
    base_cells = -1;
    last_resp = Value.Unit;
    fibers = false;
  }

let nprocs t = Array.length t.procs
let engine t = t.engine
let memory t = t.memory
let trace t = t.trace
let alloc t ?owner ~name v = Memory.alloc t.memory ?owner ~name v

let slot t pid =
  if pid < 0 || pid >= Array.length t.procs then
    invalid_arg "Machine: pid out of range";
  t.procs.(pid)

let invariant t pid (s : slot) what =
  raise (Invariant { pid; slot = s.scheds; seq = Trace.length t.trace; what })

(* Record notes until the process is parked on a memory request, a pause, or
   has finished. Notes are instantaneous and free. *)
let rec drain t pid (o : pstate) : pstate =
  match o with
  | F (Proc.Wants_note (n, k)) ->
      Trace.add_note t.trace ~pid n;
      drain t pid (F (Effect.Deep.continue k ()))
  | S (Proc.Step.Wants_note (n, k)) ->
      Trace.add_note t.trace ~pid n;
      drain t pid (S (Proc.Step.resume_unit k))
  | o -> o

let is_idle s = match s.state with P_idle -> true | _ -> false

let pre_spawn t pid (s : slot) =
  if not (is_idle s) then invalid_arg "Machine.spawn: process already spawned";
  if t.base_cells < 0 then t.base_cells <- Memory.size t.memory;
  if s.prog = Prog_none then begin
    t.spawn_seq.(t.nspawned) <- pid;
    t.nspawned <- t.nspawned + 1
  end

let spawn t pid f =
  let s = slot t pid in
  pre_spawn t pid s;
  s.prog <- Prog_fun f;
  t.fibers <- true;
  s.state <- drain t pid (F (Proc.start f))

(* A step program runs on whichever backend the machine was created with:
   under [Steps] it is driven directly (no fiber is ever created for it);
   under [Fibers] it is interpreted via {!Proc.Step.perform} inside an
   effect-handler process, performing the same effects in the same order. *)
let start_step t p =
  match t.engine with
  | Steps -> S (Proc.Step.start p)
  | Fibers ->
      t.fibers <- true;
      F (Proc.start (fun () -> Proc.Step.perform p))

let spawn_step t pid p =
  let s = slot t pid in
  pre_spawn t pid s;
  s.prog <- Prog_step p;
  s.state <- drain t pid (start_step t p)

let reset t =
  if t.base_cells >= 0 then Memory.truncate t.memory t.base_cells;
  Memory.reset t.memory;
  Trace.clear t.trace;
  Array.iter
    (fun s ->
      s.state <- P_idle;
      s.steps <- 0;
      s.scheds <- 0;
      s.stall_left <- 0;
      s.halted <- false;
      s.f_next <- 0)
    t.procs

let restart t =
  reset t;
  for i = 0 to t.nspawned - 1 do
    let pid = t.spawn_seq.(i) in
    let s = t.procs.(pid) in
    match s.prog with
    | Prog_fun f -> s.state <- drain t pid (F (Proc.start f))
    | Prog_step p -> s.state <- drain t pid (start_step t p)
    | Prog_none -> invariant t pid s "spawn order lists a pid with no program"
  done

(* ------------------------------------------------------------------ *)
(* Saved nodes                                                         *)
(*                                                                     *)
(* A saved node is the machine's whole dynamic state at one schedule    *)
(* position: each slot's parked outcome and counters, the last step's   *)
(* response, memory (values, links and size), the trace position and    *)
(* the mark of the domain's undo trail. The buffers are preallocated    *)
(* per machine, so saving a node allocates nothing once the memory      *)
(* snapshot has grown to the store's size.                              *)
(* ------------------------------------------------------------------ *)

type saved = {
  sv_state : pstate array;
  sv_steps : int array;
  sv_scheds : int array;
  sv_stall : int array;
  sv_halted : bool array;
  sv_fnext : int array;
  mutable sv_resp : Value.t;
  sv_mem : Memory.snapshot;
  mutable sv_cells : int;
  mutable sv_trace : int;
  mutable sv_trail : int;
}

let saved_make t =
  let n = Array.length t.procs in
  {
    sv_state = Array.make n P_idle;
    sv_steps = Array.make n 0;
    sv_scheds = Array.make n 0;
    sv_stall = Array.make n 0;
    sv_halted = Array.make n false;
    sv_fnext = Array.make n 0;
    sv_resp = Value.Unit;
    sv_mem = Memory.snapshot_make ();
    sv_cells = 0;
    sv_trace = 0;
    sv_trail = 0;
  }

let restorable t = not t.fibers

let save t sv =
  if t.fibers then
    invalid_arg "Machine.save: a program runs in a fiber (one-shot)";
  if Array.length sv.sv_state <> Array.length t.procs then
    invalid_arg "Machine.save: buffer made for another machine";
  for i = 0 to Array.length t.procs - 1 do
    let s = Array.unsafe_get t.procs i in
    Array.unsafe_set sv.sv_state i s.state;
    Array.unsafe_set sv.sv_steps i s.steps;
    Array.unsafe_set sv.sv_scheds i s.scheds;
    Array.unsafe_set sv.sv_stall i s.stall_left;
    Array.unsafe_set sv.sv_halted i s.halted;
    Array.unsafe_set sv.sv_fnext i s.f_next
  done;
  sv.sv_resp <- t.last_resp;
  Memory.snapshot_into t.memory sv.sv_mem;
  sv.sv_cells <- Memory.size t.memory;
  sv.sv_trace <- Trace.length t.trace;
  sv.sv_trail <- Proc.Trail.length ()

let forget sv = Array.fill sv.sv_state 0 (Array.length sv.sv_state) P_idle

let restore t sv =
  for i = 0 to Array.length t.procs - 1 do
    let s = Array.unsafe_get t.procs i in
    s.state <- Array.unsafe_get sv.sv_state i;
    s.steps <- Array.unsafe_get sv.sv_steps i;
    s.scheds <- Array.unsafe_get sv.sv_scheds i;
    s.stall_left <- Array.unsafe_get sv.sv_stall i;
    s.halted <- Array.unsafe_get sv.sv_halted i;
    s.f_next <- Array.unsafe_get sv.sv_fnext i
  done;
  t.last_resp <- sv.sv_resp;
  Memory.truncate t.memory sv.sv_cells;
  Memory.restore_from t.memory sv.sv_mem;
  Trace.rewind t.trace sv.sv_trace;
  Proc.Trail.undo_to sv.sv_trail

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let set_faults t specs =
  let n = Array.length t.procs in
  List.iter
    (fun (s : Fault.spec) ->
      if s.Fault.pid < 0 || s.Fault.pid >= n then
        invalid_arg "Machine.set_faults: pid out of range";
      if s.Fault.at < 0 then invalid_arg "Machine.set_faults: negative index";
      match s.Fault.kind with
      | Fault.Stall d when d < 1 ->
          invalid_arg "Machine.set_faults: stall must last >= 1 slot"
      | _ -> ())
    specs;
  Array.iteri
    (fun pid s ->
      let mine =
        List.filter (fun (f : Fault.spec) -> f.Fault.pid = pid) specs
      in
      let sched_specs, abort_specs =
        List.partition
          (fun (f : Fault.spec) -> f.Fault.kind <> Fault.Abort)
          mine
      in
      let plan = Array.of_list sched_specs in
      Array.sort
        (fun (a : Fault.spec) (b : Fault.spec) -> compare a.Fault.at b.Fault.at)
        plan;
      for i = 1 to Array.length plan - 1 do
        if plan.(i).Fault.at = plan.(i - 1).Fault.at then
          invalid_arg
            "Machine.set_faults: two crash/stall specs on one pid at the \
             same slot"
      done;
      let aborts =
        Array.of_list
          (List.map (fun (f : Fault.spec) -> f.Fault.at) abort_specs)
      in
      Array.sort compare aborts;
      s.plan <- plan;
      s.f_next <- 0;
      s.abort_plan <- aborts)
    t.procs

let abort_due t pid ~op_index =
  let s = slot t pid in
  let a = s.abort_plan in
  let n = Array.length a in
  let rec mem i = i < n && (a.(i) = op_index || (a.(i) < op_index && mem (i + 1))) in
  mem 0

(* A Crash/Stall spec is due when the pid's next consumed slot reaches its
   trigger index ([<=] so that a spec installed or skipped-over late still
   fires rather than being silently lost). *)
let plan_due s =
  s.f_next < Array.length s.plan
  && (Array.unsafe_get s.plan s.f_next).Fault.at <= s.scheds

let running s =
  match s.state with
  | F (Proc.Wants_mem _ | Proc.Wants_pause _)
  | S (Proc.Step.Wants_mem _ | Proc.Step.Wants_pause _) ->
      not s.halted
  | _ -> false

let inject_crash t pid =
  let s = slot t pid in
  if not (running s) then
    invalid_arg "Machine.inject_crash: process not runnable";
  s.halted <- true;
  Trace.add_note t.trace ~pid (Fault.Crashed { pid })

let inject_stall t pid ~steps =
  if steps < 1 then invalid_arg "Machine.inject_stall: steps must be >= 1";
  let s = slot t pid in
  if not (running s) then
    invalid_arg "Machine.inject_stall: process not runnable";
  s.stall_left <- s.stall_left + steps;
  Trace.add_note t.trace ~pid (Fault.Stalled { pid; steps })

let halted t pid = (slot t pid).halted
let stalled t pid = (slot t pid).stall_left > 0 && running (slot t pid)

let status t pid =
  let s = slot t pid in
  match s.state with
  | P_idle -> Idle
  | F Proc.Done | S Proc.Step.Done -> Terminated
  | F (Proc.Failed e) | S (Proc.Step.Failed e) -> Crashed e
  | F (Proc.Wants_mem _ | Proc.Wants_pause _)
  | S (Proc.Step.Wants_mem _ | Proc.Step.Wants_pause _) ->
      if s.halted then Halted else Runnable
  | F (Proc.Wants_note _) | S (Proc.Step.Wants_note _) ->
      invariant t pid s "undrained note outside a scheduled step"

let poised t pid =
  let s = slot t pid in
  if s.halted then None
  else
    match s.state with
    | F (Proc.Wants_mem (req, _)) | S (Proc.Step.Wants_mem (req, _)) ->
        Some req
    | _ -> None

(* Allocation-free status probes for the schedule explorer's inner loop. *)

let is_runnable t pid = running t.procs.(pid)

let is_failed t pid =
  match (Array.unsafe_get t.procs pid).state with
  | F (Proc.Failed _) | S (Proc.Step.Failed _) -> true
  | _ -> false

let any_crashed t =
  let n = Array.length t.procs in
  let rec go pid =
    pid < n
    &&
    match t.procs.(pid).state with
    | F (Proc.Failed _) | S (Proc.Step.Failed _) -> true
    | _ -> go (pid + 1)
  in
  go 0

(* Packed pending event for the explorer: [(addr lsl 1) lor trivial] for a
   memory request, [-1] for a pause, [-2] when not runnable. A slot whose
   next scheduled turn will be consumed by the fault layer (a stall skip or
   a due crash/stall trigger) is poised on a pause as far as the explorer is
   concerned: it will touch no base object. *)
let packed_pend t pid =
  let s = t.procs.(pid) in
  if s.halted then -2
  else
    match s.state with
    | F (Proc.Wants_mem ({ Proc.addr; prim }, _))
    | S (Proc.Step.Wants_mem ({ Proc.addr; prim }, _)) ->
        if s.stall_left > 0 || plan_due s then -1
        else (addr lsl 1) lor (if Primitive.is_trivial prim then 1 else 0)
    | F (Proc.Wants_pause _) | S (Proc.Step.Wants_pause _) -> -1
    | _ -> -2

(* Consume one scheduled slot of a running process with the fault layer:
   fire a due crash/stall trigger or eat a stall skip. Returns [true] when
   the slot was consumed here (the program's own continuation is untouched).
   Shared verbatim by [step_slot] and [feed] so that replaying a logged
   schedule reproduces fault behaviour bit-for-bit. *)
let fault_slot t pid s =
  if plan_due s then begin
    let spec = Array.unsafe_get s.plan s.f_next in
    s.f_next <- s.f_next + 1;
    s.scheds <- s.scheds + 1;
    (match spec.Fault.kind with
    | Fault.Crash ->
        s.halted <- true;
        Trace.add_note t.trace ~pid (Fault.Crashed { pid })
    | Fault.Stall d ->
        (* the trigger slot is the first of the [d] skipped ones *)
        s.stall_left <- s.stall_left + d - 1;
        Trace.add_note t.trace ~pid (Fault.Stalled { pid; steps = d })
    | Fault.Abort ->
        (* filtered out by [set_faults]; reaching one means the plan was
           corrupted behind the machine's back *)
        invariant t pid s "Fault.Abort spec in the machine-level plan");
    true
  end
  else if s.stall_left > 0 then begin
    s.stall_left <- s.stall_left - 1;
    s.scheds <- s.scheds + 1;
    true
  end
  else false

(* Apply the pending primitive and account for it; shared by the two
   backend arms of [step_slot]. *)
let exec_mem t (s : slot) ~pid ~addr ~prim =
  let resp =
    if Trace.recording t.trace then begin
      (* [changed] is needed only by the trace entry: compare the cell
         around the apply *)
      let before = Memory.peek t.memory addr in
      let resp = Memory.apply t.memory ~pid addr prim in
      let changed = not (Value.equal before (Memory.peek t.memory addr)) in
      Trace.add_mem t.trace ~pid ~addr prim resp changed;
      resp
    end
    else begin
      (* trace off: no entry is built, the event is only counted *)
      Trace.tick t.trace;
      Memory.apply t.memory ~pid addr prim
    end
  in
  t.last_resp <- resp;
  s.steps <- s.steps + 1;
  s.scheds <- s.scheds + 1;
  resp

let step_slot t pid (s : slot) : step_result =
  match s.state with
  | P_idle
  | F (Proc.Done | Proc.Failed _)
  | S (Proc.Step.Done | Proc.Step.Failed _) ->
      `Done
  | F (Proc.Wants_note _) | S (Proc.Step.Wants_note _) ->
      invariant t pid s "undrained note outside a scheduled step"
  | ( F (Proc.Wants_pause _ | Proc.Wants_mem _)
    | S (Proc.Step.Wants_pause _ | Proc.Step.Wants_mem _) )
    when s.halted ->
      `Done
  | ( F (Proc.Wants_pause _ | Proc.Wants_mem _)
    | S (Proc.Step.Wants_pause _ | Proc.Step.Wants_mem _) )
    when fault_slot t pid s ->
      (* the slot was consumed without a memory event, like a pause *)
      `Paused
  | F (Proc.Wants_pause k) ->
      s.scheds <- s.scheds + 1;
      s.state <- drain t pid (F (Effect.Deep.continue k ()));
      `Paused
  | S (Proc.Step.Wants_pause k) ->
      s.scheds <- s.scheds + 1;
      s.state <- drain t pid (S (Proc.Step.resume_unit k));
      `Paused
  | F (Proc.Wants_mem ({ Proc.addr; prim }, k)) ->
      let resp = exec_mem t s ~pid ~addr ~prim in
      s.state <- drain t pid (F (Effect.Deep.continue k resp));
      `Progress
  | S (Proc.Step.Wants_mem ({ Proc.addr; prim }, k)) ->
      let resp = exec_mem t s ~pid ~addr ~prim in
      s.state <- drain t pid (S (Proc.Step.resume k resp));
      `Progress

let step t pid : step_result = step_slot t pid (slot t pid)

(* Explorer hot path: pids come from validated schedules, skip the bounds
   check the public [step] performs on every call. *)
let unsafe_step t pid : step_result =
  step_slot t pid (Array.unsafe_get t.procs pid)

let last_resp t = t.last_resp

let feed t pid resp ~changed =
  let s = t.procs.(pid) in
  match s.state with
  | ( F (Proc.Wants_pause _ | Proc.Wants_mem _)
    | S (Proc.Step.Wants_pause _ | Proc.Step.Wants_mem _) )
    when s.halted ->
      invalid_arg "Machine.feed: process is halted"
  | ( F (Proc.Wants_pause _ | Proc.Wants_mem _)
    | S (Proc.Step.Wants_pause _ | Proc.Step.Wants_mem _) )
    when fault_slot t pid s ->
      (* same gate as [step]: the logged position was a fault slot, which
         records the same notes and touches no memory *)
      ()
  | F (Proc.Wants_pause k) ->
      (* Pauses consume no event and record nothing, exactly like [step]. *)
      s.scheds <- s.scheds + 1;
      s.state <- drain t pid (F (Effect.Deep.continue k ()))
  | S (Proc.Step.Wants_pause k) ->
      s.scheds <- s.scheds + 1;
      s.state <- drain t pid (S (Proc.Step.resume_unit k))
  | F (Proc.Wants_mem ({ Proc.addr; prim }, k)) ->
      Trace.add_mem t.trace ~pid ~addr prim resp changed;
      s.steps <- s.steps + 1;
      s.scheds <- s.scheds + 1;
      s.state <- drain t pid (F (Effect.Deep.continue k resp))
  | S (Proc.Step.Wants_mem ({ Proc.addr; prim }, k)) ->
      Trace.add_mem t.trace ~pid ~addr prim resp changed;
      s.steps <- s.steps + 1;
      s.scheds <- s.scheds + 1;
      s.state <- drain t pid (S (Proc.Step.resume k resp))
  | _ -> invalid_arg "Machine.feed: process not runnable"

let steps_of t pid = (slot t pid).steps
let scheds_of t pid = (slot t pid).scheds

let all_done t =
  Array.for_all
    (fun s ->
      s.halted
      ||
      match s.state with
      | P_idle
      | F (Proc.Done | Proc.Failed _)
      | S (Proc.Step.Done | Proc.Step.Failed _) ->
          true
      | _ -> false)
    t.procs

let check_crashes t =
  Array.iter
    (fun s ->
      match s.state with
      | F (Proc.Failed e) | S (Proc.Step.Failed e) -> raise e
      | _ -> ())
    t.procs
