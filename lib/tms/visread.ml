open Ptm_machine

(* orec = Pair (Int writer, Int readers): writer transaction id (-1 = none)
   and the count of registered readers (not counting an upgrading writer). *)

let pack ~writer ~readers = Value.Pair (Value.Int writer, Value.Int readers)

let unpack v =
  let a, b = Value.to_pair v in
  (Value.to_int a, Value.to_int b)

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "visread"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = true;
      invisible_reads = false;
      weak_invisible_reads = false;
      progressive = true;
      strongly_progressive = false;
    }

  type t = { orecs : Memory.addr array; data : Memory.addr array }

  let create machine ~nobjs =
    {
      orecs =
        Machine.alloc_array machine ~name:"vr.orec" nobjs
          (pack ~writer:Orec.none ~readers:0);
      data =
        Machine.alloc_array machine ~name:"vr.data" nobjs
          (Value.Int Ptm_core.Tm_intf.init_value);
    }

  type tx = {
    id : int;
    rlocks : int list P.var;
    wlocks : int list P.var;
    wbuf : (int * int) list P.var;
  }

  let fresh _t ~pid:_ ~id =
    { id; rlocks = P.var []; wlocks = P.var []; wbuf = P.var [] }

  let rec unregister_reader t x =
    let* o = P.read t.orecs.(x) in
    let w, r = unpack o in
    let* unregistered =
      P.cas t.orecs.(x) ~expected:(pack ~writer:w ~readers:r)
        ~desired:(pack ~writer:w ~readers:(r - 1))
    in
    if unregistered then P.return () else unregister_reader t x

  let release t tx =
    let* () =
      P.iter
        (fun x -> P.write t.orecs.(x) (pack ~writer:Orec.none ~readers:0))
        (P.get tx.wlocks)
    in
    let* () = P.iter (fun x -> unregister_reader t x) (P.get tx.rlocks) in
    P.set tx.wlocks [];
    P.set tx.rlocks [];
    P.return ()

  let abort t tx =
    let* () = release t tx in
    P.return (Error `Abort)

  let read t tx x =
    P.suspend @@ fun () ->
    match List.assoc_opt x (P.get tx.wbuf) with
    | Some v -> P.return (Ok v)
    | None ->
        if List.mem x (P.get tx.rlocks) then P.map Result.ok (P.read_int t.data.(x))
        else
          let rec go () =
            let* o = P.read t.orecs.(x) in
            let w, r = unpack o in
            if w <> Orec.none then abort t tx
            else
              let* registered =
                P.cas t.orecs.(x) ~expected:(pack ~writer:w ~readers:r)
                  ~desired:(pack ~writer:w ~readers:(r + 1))
              in
              if registered then begin
                P.set tx.rlocks (x :: P.get tx.rlocks);
                P.map Result.ok (P.read_int t.data.(x))
              end
              else
                (* lost a race with another reader: retry, not a conflict *)
                go ()
          in
          go ()

  let write t tx x v =
    P.suspend @@ fun () ->
    if List.mem x (P.get tx.wlocks) then begin
      P.set tx.wbuf ((x, v) :: P.get tx.wbuf);
      P.return (Ok ())
    end
    else
      let rec go () =
        let* o = P.read t.orecs.(x) in
        let w, r = unpack o in
        let own = if List.mem x (P.get tx.rlocks) then 1 else 0 in
        if w <> Orec.none then abort t tx
        else if r > own then abort t tx (* foreign readers present: conflict *)
        else
          let* locked =
            P.cas t.orecs.(x) ~expected:(pack ~writer:w ~readers:r)
              ~desired:(pack ~writer:tx.id ~readers:(r - own))
          in
          if locked then begin
            if own = 1 then
              P.set tx.rlocks (List.filter (fun y -> y <> x) (P.get tx.rlocks));
            P.set tx.wlocks (x :: P.get tx.wlocks);
            P.set tx.wbuf ((x, v) :: P.get tx.wbuf);
            P.return (Ok ())
          end
          else go ()
      in
      go ()

  let try_commit t tx =
    P.suspend @@ fun () ->
    (* Two-phase locking: everything we read or wrote is still locked, so
       the buffered values can be installed with no validation. *)
    let* () =
      P.iter
        (fun x ->
          match List.assoc_opt x (P.get tx.wbuf) with
          | Some v -> P.write t.data.(x) (Value.Int v)
          | None -> P.return ())
        (P.get tx.wlocks)
    in
    let* () = release t tx in
    P.return (Ok ())
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
