open Ptm_machine
module Cm = Ptm_core.Cm

(* DSTM-style obstruction-free TM (Herlihy–Luchangco–Moir–Scherer): every
   t-object is a locator that either holds a committed (version, value)
   pair or points at the owning transaction's status word together with the
   old and new values. Ownership is acquired — and STOLEN — by CAS; there
   is no lock anywhere, so a crashed owner can never block a peer: the peer
   CASes the crashed transaction's status word from active to aborted and
   moves on. Contrast [Dstm], whose encounter-time write locks are held
   until the owner itself releases them.

   Object header (one cell per t-object):

     Clean (ver, v)              = Pair (Int ver, Int v)
     Owned {desc; pid; over; oval; nval}
                                 = Pair (Int desc, Pair (Int pid,
                                     Pair (Int over, Pair (Int oval, Int nval))))

   [desc] is the address of the owner's status word (Int: 0 active,
   1 committed, 2 aborted), published before the owner's first acquisition
   and CASed exactly once to a decided state — by the owner (commit or
   self-abort) or by a thief (steal). Decided statuses are final, so the
   effective state of an owned object is computed, never copied back:
   committed owner = (over+1, nval), aborted owner = (over, oval). Cleanup
   is lazy — the next writer replaces the whole header, readers never
   write.

   Conflicts (a foreign ACTIVE owner) go to the contention manager:
   steal / wait (each wait is a real status re-read) / self-abort. Reads
   are invisible except when stealing, hence weakly — not strongly —
   invisible. Validation is pessimistic: a read-set entry whose header
   shows a foreign active owner is invalid (exactly as [Dstm] treats a
   foreign lock), which closes the validate-then-commit-CAS race — two
   rivals that both read the other's write target cannot both pass
   validation while both are still active, so no serialization cycle
   survives. Versions bump only on commit; chains of aborted owners keep
   (over, oval) unchanged, so recorded reads cannot be ABA'd. *)

module type CONFIG = sig
  val cm : Cm.kind
end

module Make (C : CONFIG) (P : Proc.S) = struct
  let ( let* ) = P.bind

  let name =
    match C.cm with Cm.Karma -> "ofree" | k -> "ofree+" ^ Cm.kind_name k

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = true;
      invisible_reads = false;
      weak_invisible_reads = true;
      progressive = true;
      strongly_progressive = false;
    }

  let active = 0
  let committed = 1
  let aborted = 2

  let clean ~ver ~v = Value.Pair (Value.Int ver, Value.Int v)

  let owned ~desc ~pid ~over ~oval ~nval =
    Value.Pair
      ( Value.Int desc,
        Value.Pair
          ( Value.Int pid,
            Value.Pair
              (Value.Int over, Value.Pair (Value.Int oval, Value.Int nval)) ) )

  type header =
    | Clean of int * int
    | Owned of { desc : int; opid : int; over : int; oval : int; nval : int }

  let header_of = function
    | Value.Pair (Value.Int ver, Value.Int v) -> Clean (ver, v)
    | Value.Pair
        ( Value.Int desc,
          Value.Pair
            ( Value.Int opid,
              Value.Pair
                (Value.Int over, Value.Pair (Value.Int oval, Value.Int nval))
            ) ) ->
        Owned { desc; opid; over; oval; nval }
    | v -> invalid_arg ("Ofree: malformed header " ^ Value.show v)

  type t = { headers : Memory.addr array; machine : Machine.t; cm : Cm.t }

  let create machine ~nobjs =
    {
      headers =
        Machine.alloc_array machine ~name:"ofree.h" nobjs
          (clean ~ver:0 ~v:Ptm_core.Tm_intf.init_value);
      machine;
      cm = Cm.create machine C.cm;
    }

  type tx = {
    id : int;
    pid : int;
    status : Memory.addr option P.var;
        (* allocated at the first write acquisition; a read-only
           transaction never publishes anything *)
    rset : (int * (int * int)) list P.var;  (* obj -> (ver, value) *)
    wset : (int * (int * int * int)) list P.var;
        (* obj -> (over, oval, nval) as published in the header *)
  }

  let fresh _t ~pid ~id =
    { id; pid; status = P.var None; rset = P.var []; wset = P.var [] }

  let mine tx desc =
    match P.get tx.status with Some d -> d = desc | None -> false

  (* Abort this attempt: publish the decision (peers must be able to
     observe it and recover (over, oval) from any header we still own),
     then report. With no status cell nothing was shared and the abort is
     free. The CAS may lose to a thief — same decided outcome. *)
  let self_abort tx =
    P.suspend @@ fun () ->
    match P.get tx.status with
    | None -> P.return (Error `Abort)
    | Some d ->
        let* _ =
          P.cas d ~expected:(Value.int_ active) ~desired:(Value.int_ aborted)
        in
        P.return (Error `Abort)

  (* Resolve object [x] to a decided state: the effective (version, value)
     plus the raw header it was computed from (the CAS-expected value for
     an acquisition). A foreign ACTIVE owner is a conflict — consult the
     contention manager; stealing is one CAS on the rival's status word and
     works identically when the rival crashed mid-transaction. *)
  let resolve t tx x =
    P.suspend @@ fun () ->
    let rec go waited =
      let* h = P.read t.headers.(x) in
      match header_of h with
      | Clean (ver, v) -> P.return (Ok (ver, v, h))
      | Owned { desc; opid; over; oval; nval } ->
          if mine tx desc then P.return (Ok (over, nval, h))
          else
            let* st = P.read_int desc in
            if st = committed then
              (* [nval] is only the owner's FINAL new value if the header
                 did not move between our two reads: the owner re-publishes
                 repeated writes in place (same desc), so a stale header
                 plus the final status would yield a speculative
                 intermediate value no committed state ever held. Confirm
                 the header, or start over. (The aborted branch needs no
                 confirmation: over/oval are immutable for a given desc.
                 The acquire path's CAS on the expected header subsumes
                 this check for writes.) *)
              let* h2 = P.read t.headers.(x) in
              if h2 = h then P.return (Ok (over + 1, nval, h))
              else go waited
            else if st = aborted then P.return (Ok (over, oval, h))
            else begin
              match Cm.decide t.cm ~pid:tx.pid ~owner:opid ~waited with
              | Cm.Steal ->
                  let* _ =
                    P.cas desc ~expected:(Value.int_ active)
                      ~desired:(Value.int_ aborted)
                  in
                  go waited
              | Cm.Wait -> go (waited + 1)
              | Cm.Self_abort -> P.return (Error `Abort)
            end
    in
    go 0

  (* Pessimistic whole-read-set validation: every entry must still resolve
     to its recorded version, and a foreign ACTIVE owner fails outright
     (no stealing here — conflicts are resolved at acquisition time; a
     validation-time conflict means the snapshot is already in doubt). *)
  let valid t tx =
    P.suspend @@ fun () ->
    let rec go = function
      | [] -> P.return true
      | (x, (ver, _)) :: rest -> (
          let* h = P.read t.headers.(x) in
          match header_of h with
          | Clean (ver', _) -> if ver' = ver then go rest else P.return false
          | Owned { desc; over; _ } ->
              if mine tx desc then
                if over = ver then go rest else P.return false
              else
                let* st = P.read_int desc in
                if st = committed then
                  if over + 1 = ver then go rest else P.return false
                else if st = aborted then
                  if over = ver then go rest else P.return false
                else P.return false)
    in
    go (P.get tx.rset)

  let read t tx x =
    P.suspend @@ fun () ->
    match List.assoc_opt x (P.get tx.wset) with
    | Some (_, _, nval) -> P.return (Ok nval)
    | None -> (
        match List.assoc_opt x (P.get tx.rset) with
        | Some (_, v) -> P.return (Ok v)
        | None -> (
            let* r = resolve t tx x in
            match r with
            | Error `Abort -> self_abort tx
            | Ok (ver, v, _) ->
                let* ok = valid t tx in
                if not ok then self_abort tx
                else begin
                  P.set tx.rset ((x, (ver, v)) :: P.get tx.rset);
                  Cm.on_open t.cm ~pid:tx.pid;
                  P.return (Ok v)
                end))

  let write t tx x v =
    P.suspend @@ fun () ->
    match List.assoc_opt x (P.get tx.wset) with
    | Some (over, oval, nval0) ->
        (* Re-publish the new speculative value: peers compute our
           post-commit value from the header, so it must be there before
           our commit CAS. A failed CAS means a thief aborted us and a new
           owner already replaced the header. *)
        let d = Option.get (P.get tx.status) in
        let* won =
          P.cas t.headers.(x)
            ~expected:(owned ~desc:d ~pid:tx.pid ~over ~oval ~nval:nval0)
            ~desired:(owned ~desc:d ~pid:tx.pid ~over ~oval ~nval:v)
        in
        if won then begin
          P.set tx.wset ((x, (over, oval, v)) :: List.remove_assoc x (P.get tx.wset));
          P.return (Ok ())
        end
        else self_abort tx
    | None ->
        let d =
          match P.get tx.status with
          | Some d -> d
          | None ->
              (* set-up allocation, not a step; explorer restarts re-land
                 it at the same address (the OSTM descriptor idiom) *)
              let d =
                Machine.alloc t.machine ~name:"ofree.st" ~index:tx.id
                  (Value.int_ active)
              in
              P.set tx.status (Some d);
              d
        in
        let rec acquire () =
          let* r = resolve t tx x in
          match r with
          | Error `Abort -> self_abort tx
          | Ok (over, oval, expected) -> (
              match List.assoc_opt x (P.get tx.rset) with
              | Some (ver, _) when ver <> over ->
                  (* the object moved on since we read it: doomed anyway *)
                  self_abort tx
              | _ ->
                  let* won =
                    P.cas t.headers.(x) ~expected
                      ~desired:
                        (owned ~desc:d ~pid:tx.pid ~over ~oval ~nval:v)
                  in
                  if won then begin
                    P.set tx.wset ((x, (over, oval, v)) :: P.get tx.wset);
                    Cm.on_open t.cm ~pid:tx.pid;
                    P.return (Ok ())
                  end
                  else acquire ())
        in
        acquire ()

  let try_commit t tx =
    P.suspend @@ fun () ->
    let* ok = valid t tx in
    match P.get tx.status with
    | None ->
        (* read-only: the final validation is the commit point *)
        if ok then begin
          Cm.on_commit t.cm ~pid:tx.pid;
          P.return (Ok ())
        end
        else P.return (Error `Abort)
    | Some d ->
        if not ok then self_abort tx
        else
          let* won =
            P.cas d ~expected:(Value.int_ active)
              ~desired:(Value.int_ committed)
          in
          if won then begin
            Cm.on_commit t.cm ~pid:tx.pid;
            P.return (Ok ())
          end
          else (* stolen: the thief already decided us aborted *)
            P.return (Error `Abort)
end

module Karma = struct
  let cm = Cm.Karma
end

include Make (Karma) (Proc.Direct)
module Stepwise = Make (Karma) (Proc.Step)

(* One variant per other contention manager, in both forms. *)
module Variant (C : CONFIG) = struct
  include Make (C) (Proc.Direct)
  module Stepwise = Make (C) (Proc.Step)
end

module Aggressive = Variant (struct
  let cm = Cm.Aggressive
end)

module Polite = Variant (struct
  let cm = Cm.Polite
end)

module Timestamp = Variant (struct
  let cm = Cm.Timestamp
end)
