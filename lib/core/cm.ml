open Ptm_machine

type kind = Aggressive | Polite | Karma | Timestamp

let all_kinds = [ Aggressive; Polite; Karma; Timestamp ]

let kind_name = function
  | Aggressive -> "aggr"
  | Polite -> "polite"
  | Karma -> "karma"
  | Timestamp -> "ts"

let kind_of_name = function
  | "aggr" | "aggressive" -> Some Aggressive
  | "polite" -> Some Polite
  | "karma" -> Some Karma
  | "ts" | "timestamp" | "greedy" -> Some Timestamp
  | _ -> None

type decision = Steal | Wait | Self_abort

(* All manager state lives in machine cells accessed with peek/poke: no
   events (decisions are free in the step model), and the cells are
   restored with the rest of the machine on explorer restarts, so a
   replayed schedule sees the identical decisions. *)
type t = {
  kind : kind;
  mem : Memory.t;
  karma : Memory.addr array;  (* per-pid opened-object count, kept on abort *)
  ts : Memory.addr array;  (* per-pid birth timestamp, 0 = not yet drawn *)
  clock : Memory.addr;  (* logical clock feeding the timestamps *)
}

(* How long Polite spins on one conflict before stealing, and how long a
   younger Timestamp transaction waits for an older owner before
   self-aborting. Small fixed bounds: each waited slot is a real machine
   step in the caller's conflict loop. *)
let polite_patience = 4
let ts_patience = 8

let create machine kind =
  let cells name =
    Machine.alloc_array machine ~name (Machine.nprocs machine) (Value.Int 0)
  in
  {
    kind;
    mem = Machine.memory machine;
    karma = cells "cm.karma";
    ts = cells "cm.ts";
    clock = Machine.alloc machine ~name:"cm.clock" (Value.Int 0);
  }

let kind d = d.kind

let get d a = Value.to_int (Memory.peek d.mem a)
let set d a v = Memory.poke d.mem a (Value.int_ v)

(* Draw the birth timestamp lazily, at the first conflict: Greedy keeps it
   across retries (on_commit resets it), so a transaction only ages. *)
let my_ts d pid =
  let t = get d d.ts.(pid) in
  if t > 0 then t
  else begin
    let c = get d d.clock + 1 in
    set d d.clock c;
    set d d.ts.(pid) c;
    c
  end

let decide d ~pid ~owner ~waited =
  match d.kind with
  | Aggressive -> Steal
  | Polite -> if waited < polite_patience then Wait else Steal
  | Karma ->
      let mine = get d d.karma.(pid) and his = get d d.karma.(owner) in
      if mine >= his then Steal
      else begin
        (* each wait accrues karma, so every waiter eventually steals *)
        set d d.karma.(pid) (mine + 1);
        Wait
      end
  | Timestamp ->
      let mine = my_ts d pid in
      let his = get d d.ts.(owner) in
      (* an owner with no timestamp has hit no conflict yet: treat it as
         younger *)
      if his = 0 || mine < his then Steal
      else if waited < ts_patience then Wait
      else Self_abort

let on_open d ~pid =
  match d.kind with
  | Karma -> set d d.karma.(pid) (get d d.karma.(pid) + 1)
  | Aggressive | Polite | Timestamp -> ()

let on_commit d ~pid =
  match d.kind with
  | Karma -> set d d.karma.(pid) 0
  | Timestamp -> set d d.ts.(pid) 0
  | Aggressive | Polite -> ()
