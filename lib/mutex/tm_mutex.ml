(** Algorithm 1 of the paper: a deadlock-free, finite-exit mutual exclusion
    object L(M) built from a strictly serializable, strongly progressive TM
    [M] operating on a single t-object.

    [func()] atomically swaps the caller's identity [(pid, face)] into the
    t-object [X] and returns the previous value, retrying until the strongly
    progressive TM commits it. The previous holder's identity gives the
    predecessor; handshake registers [Done], [Succ] and the spin register
    [Lock[p][q]] (local to [p]) implement the queue hand-off with O(1) RMR
    overhead on top of M (Theorem 7).

    Note: the paper's line 30 spins "while Lock[pi][prev.pid] = unlocked";
    since the predecessor's Exit {e writes} [unlocked] to release its
    successor (lines 27/37), the spin condition must be [= locked] — we
    implement the corrected condition, which is what makes Lemmas 5 and 6 go
    through (see DESIGN.md). *)

open Ptm_machine

module Make (T : Ptm_core.Tm_intf.S) = struct
  module R = Ptm_core.Runner.Make (T)

  let name = "tm-mutex(" ^ T.name ^ ")"

  type t = {
    ctx : R.ctx;
    done_ : Memory.addr array array;  (* done_.(p).(face), owned by p *)
    succ : Memory.addr array array;  (* succ.(p).(face), owned by p *)
    lock : Memory.addr array array;  (* lock.(p).(q), owned by p *)
    mem : Memory.t;
    face : Memory.addr array;
        (* process-local alternating identity; a machine cell accessed with
           peek/poke (no events), so it is restored together with the rest
           of the machine when the explorer resets a pooled machine *)
  }

  (* X stores 0 for the initial (bottom) value and 1 + 2*pid + face for an
     identity, staying within the TM's integer value domain. *)
  let encode ~pid ~face = 1 + (2 * pid) + face
  let decode v = ((v - 1) / 2, (v - 1) land 1)

  let create machine ~nprocs =
    let cells2 prefix p init =
      Array.init 2 (fun f ->
          Machine.alloc machine ~owner:p
            ~name:(Printf.sprintf "%s[%d][%d]" prefix p f)
            init)
    in
    {
      ctx = R.init machine ~nobjs:1;
      done_ =
        Array.init nprocs (fun p -> cells2 "lm.done" p (Value.Bool false));
      succ = Array.init nprocs (fun p -> cells2 "lm.succ" p (Value.Pid (-1)));
      lock =
        Array.init nprocs (fun p ->
            Array.init nprocs (fun q ->
                Machine.alloc machine ~owner:p
                  ~name:(Printf.sprintf "lm.lock[%d][%d]" p q)
                  (Value.Bool false)));
      mem = Machine.memory machine;
      face =
        Array.init nprocs (fun p ->
            Machine.alloc machine ~owner:p ~name:"lm.face" ~index:p
              (Value.Int 0));
    }

  let get_face t ~pid = Value.to_int (Memory.peek t.mem t.face.(pid))

  (* Atomically read X and replace it with our identity; None on abort. *)
  let func t ~pid ~face =
    let tx = R.begin_tx t.ctx ~pid in
    match R.read t.ctx tx 0 with
    | Error `Abort -> None
    | Ok v -> (
        match R.write t.ctx tx 0 (encode ~pid ~face) with
        | Error `Abort -> None
        | Ok () -> (
            match R.commit t.ctx tx with
            | Ok () -> Some v
            | Error `Abort -> None))

  let enter t ~pid =
    let face = 1 - get_face t ~pid in
    Memory.poke t.mem t.face.(pid) (Value.Int face);
    Proc.write t.done_.(pid).(face) (Value.Bool false);
    Proc.write t.succ.(pid).(face) (Value.Pid (-1));
    let rec swap () =
      match func t ~pid ~face with Some v -> v | None -> swap ()
    in
    let prev = swap () in
    if prev <> 0 then begin
      let ppid, pface = decode prev in
      Proc.write t.lock.(pid).(ppid) (Value.Bool true);
      Proc.write t.succ.(ppid).(pface) (Value.Pid pid);
      if not (Proc.read_bool t.done_.(ppid).(pface)) then
        while Proc.read_bool t.lock.(pid).(ppid) do
          ()
        done
    end

  let exit_cs t ~pid =
    let face = get_face t ~pid in
    Proc.write t.done_.(pid).(face) (Value.Bool true);
    let s = Value.to_pid (Proc.read t.succ.(pid).(face)) in
    if s >= 0 then Proc.write t.lock.(s).(pid) (Value.Bool false)
end
