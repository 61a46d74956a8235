type model = Cc_write_through | Cc_write_back | Dsm

let model_name = function
  | Cc_write_through -> "CC/WT"
  | Cc_write_back -> "CC/WB"
  | Dsm -> "DSM"

let all_models = [ Cc_write_through; Cc_write_back; Dsm ]

type counts = { per_pid : int array; total : int }

(* Per-address cache line state, per model. For write-through we track the
   set of processes holding a valid copy. For write-back we track MESI-lite:
   either one exclusive holder or a set of sharers. *)

type wb_line = Invalid | Shared of int list | Exclusive of int

(* The one cache simulator: [remote] applies one access to the line state
   and says whether it incurs an RMR. The online [Stream] and the offline
   replay ([count] feeds the trace to a [Stream]; [iter] reports each
   charged event) both run every event through it.

   Line state is an array indexed by address (addresses are dense from 0),
   only the model's own array ever filled. It starts at the memory's size
   and grows when a cell allocated later is first touched; [remote] rejects
   an address outside the memory before any lookup, so the memory's size
   bounds every growth. *)
type sim = {
  model : model;
  memory : Memory.t;
  mutable wt_valid : int list array;  (* Cc_write_through: holders *)
  mutable wb_lines : wb_line array;  (* Cc_write_back *)
}

let sim model memory =
  let n = Memory.size memory in
  {
    model;
    memory;
    wt_valid = (if model = Cc_write_through then Array.make n [] else [||]);
    wb_lines = (if model = Cc_write_back then Array.make n Invalid else [||]);
  }

(* Doubling keeps OSTM's one-descriptor-at-a-time allocation linear. *)
let grown lines fill ~size =
  let fresh = Array.make (max size (2 * Array.length lines)) fill in
  Array.blit lines 0 fresh 0 (Array.length lines);
  fresh

let remote s ~pid ~addr ~trivial =
  let size = Memory.size s.memory in
  if addr < 0 || addr >= size then
    invalid_arg
      (Printf.sprintf "Rmr: address %d outside the memory [0, %d)" addr size);
  match s.model with
  | Dsm -> (
      match Memory.owner s.memory addr with Some o when o = pid -> false | _ -> true)
  | Cc_write_through ->
      if addr >= Array.length s.wt_valid then
        s.wt_valid <- grown s.wt_valid [] ~size;
      let holders = s.wt_valid.(addr) in
      if trivial then
        (not (List.mem pid holders))
        && begin
             s.wt_valid.(addr) <- pid :: holders;
             true
           end
      else begin
        (* Write-through: always an RMR; invalidates the other processes'
           cached copies, but the writer's own line stays valid (the store
           updates it in place on its way to memory), so a writer re-reading
           its own line is not charged again. *)
        s.wt_valid.(addr) <- [ pid ];
        true
      end
  | Cc_write_back -> (
      if addr >= Array.length s.wb_lines then
        s.wb_lines <- grown s.wb_lines Invalid ~size;
      let line = s.wb_lines.(addr) in
      if trivial then
        match line with
        | Shared ps when List.mem pid ps -> false
        | Exclusive p when p = pid -> false
        | Shared ps ->
            s.wb_lines.(addr) <- Shared (pid :: ps);
            true
        | Exclusive p ->
            (* write back and demote the exclusive holder *)
            s.wb_lines.(addr) <- Shared [ pid; p ];
            true
        | Invalid ->
            s.wb_lines.(addr) <- Shared [ pid ];
            true
      else
        match line with
        | Exclusive p when p = pid -> false
        | _ ->
            s.wb_lines.(addr) <- Exclusive pid;
            true)

(* Online accounting for runs too large to retain a trace: the caller
   supplies (pid, addr, triviality) — exactly what [Machine.packed_pend]
   exposes before a step — so a load driver charges RMRs under the [Off]
   sink, through the same simulator as the offline replay. *)
module Stream = struct
  type t = { sim : sim; per_pid : int array; mutable total : int }

  let create model ~nprocs memory =
    if nprocs < 1 then
      invalid_arg
        (Printf.sprintf "Rmr.Stream.create: nprocs %d, need >= 1" nprocs);
    { sim = sim model memory; per_pid = Array.make nprocs 0; total = 0 }

  let feed t ~pid ~addr ~trivial =
    let nprocs = Array.length t.per_pid in
    if pid < 0 || pid >= nprocs then
      invalid_arg (Printf.sprintf "Rmr: pid %d outside [0, %d)" pid nprocs);
    if remote t.sim ~pid ~addr ~trivial then begin
      t.per_pid.(pid) <- t.per_pid.(pid) + 1;
      t.total <- t.total + 1
    end

  let counts t = { per_pid = Array.copy t.per_pid; total = t.total }
end

let iter model memory trace charge =
  let s = sim model memory in
  Trace.iter trace (function
    | Trace.Mem e ->
        if remote s ~pid:e.pid ~addr:e.addr ~trivial:(Primitive.is_trivial e.prim)
        then charge e
    | Trace.Note _ -> ())

let count model ~nprocs memory trace =
  let st = Stream.create model ~nprocs memory in
  Trace.iter trace (function
    | Trace.Mem e ->
        Stream.feed st ~pid:e.pid ~addr:e.addr
          ~trivial:(Primitive.is_trivial e.prim)
    | Trace.Note _ -> ());
  Stream.counts st
