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
   charged event) both run every event through it. *)
type sim = {
  model : model;
  memory : Memory.t;
  wt_valid : (int, int list) Hashtbl.t;  (* Cc_write_through *)
  wb_lines : (int, wb_line) Hashtbl.t;  (* Cc_write_back *)
}

let sim model memory =
  { model; memory; wt_valid = Hashtbl.create 64; wb_lines = Hashtbl.create 64 }

let remote s ~pid ~addr ~trivial =
  match s.model with
  | Dsm -> (
      match Memory.owner s.memory addr with Some o when o = pid -> false | _ -> true)
  | Cc_write_through ->
      let holders =
        Option.value ~default:[] (Hashtbl.find_opt s.wt_valid addr)
      in
      if trivial then
        (not (List.mem pid holders))
        && begin
             Hashtbl.replace s.wt_valid addr (pid :: holders);
             true
           end
      else begin
        (* Write-through: always an RMR; invalidates the other processes'
           cached copies, but the writer's own line stays valid (the store
           updates it in place on its way to memory), so a writer re-reading
           its own line is not charged again. *)
        Hashtbl.replace s.wt_valid addr [ pid ];
        true
      end
  | Cc_write_back -> (
      let line =
        Option.value ~default:Invalid (Hashtbl.find_opt s.wb_lines addr)
      in
      if trivial then
        match line with
        | Shared ps when List.mem pid ps -> false
        | Exclusive p when p = pid -> false
        | Shared ps ->
            Hashtbl.replace s.wb_lines addr (Shared (pid :: ps));
            true
        | Exclusive p ->
            (* write back and demote the exclusive holder *)
            Hashtbl.replace s.wb_lines addr (Shared [ pid; p ]);
            true
        | Invalid ->
            Hashtbl.replace s.wb_lines addr (Shared [ pid ]);
            true
      else
        match line with
        | Exclusive p when p = pid -> false
        | _ ->
            Hashtbl.replace s.wb_lines addr (Exclusive pid);
            true)

(* Online accounting for runs too large to retain a trace: the caller
   supplies (pid, addr, triviality) — exactly what [Machine.packed_pend]
   exposes before a step — so a load driver charges RMRs under the [Off]
   sink, through the same simulator as the offline replay. *)
module Stream = struct
  type t = { sim : sim; per_pid : int array; mutable total : int }

  let create model ~nprocs memory =
    { sim = sim model memory; per_pid = Array.make nprocs 0; total = 0 }

  let feed t ~pid ~addr ~trivial =
    if remote t.sim ~pid ~addr ~trivial then begin
      t.per_pid.(pid) <- t.per_pid.(pid) + 1;
      t.total <- t.total + 1
    end

  let counts t = { per_pid = Array.copy t.per_pid; total = t.total }
end

let iter model memory trace charge =
  let s = sim model memory in
  List.iter
    (fun (e : Trace.mem_event) ->
      if remote s ~pid:e.pid ~addr:e.addr ~trivial:(Primitive.is_trivial e.prim)
      then charge e)
    (Trace.mem_events trace)

let count model ~nprocs memory trace =
  let st = Stream.create model ~nprocs memory in
  List.iter
    (fun (e : Trace.mem_event) ->
      Stream.feed st ~pid:e.pid ~addr:e.addr
        ~trivial:(Primitive.is_trivial e.prim))
    (Trace.mem_events trace);
  Stream.counts st
