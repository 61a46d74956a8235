open Ptm_machine

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "dstm"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = true;
      invisible_reads = true;
      weak_invisible_reads = true;
      progressive = true;
      strongly_progressive = false;
    }

  type t = { orecs : Memory.addr array; data : Memory.addr array }

  let create machine ~nobjs =
    {
      orecs =
        Machine.alloc_array machine ~name:"dstm.orec" nobjs
          (Orec.pack ~ver:0 ~owner:Orec.none);
      data =
        Machine.alloc_array machine ~name:"dstm.data" nobjs
          (Value.Int Ptm_core.Tm_intf.init_value);
    }

  type tx = {
    id : int;
    rset : (int * (int * int)) list P.var;  (* obj -> (ver, value) *)
    wlocks : (int * int) list P.var;  (* obj -> ver at lock time *)
    wbuf : (int * int) list P.var;  (* obj -> value, latest first *)
  }

  let fresh _t ~pid:_ ~id =
    { id; rset = P.var []; wlocks = P.var []; wbuf = P.var [] }

  let abort t tx =
    let* () =
      P.iter
        (fun (x, ver) -> P.write t.orecs.(x) (Orec.pack ~ver ~owner:Orec.none))
        (P.get tx.wlocks)
    in
    P.set tx.wlocks [];
    P.return (Error `Abort)

  (* Re-read the orec of every read-set entry; a version change or a foreign
     lock is a conflict. This is the paper's incremental validation: the i-th
     read performs i-1 of these checks. *)
  let valid t tx =
    P.for_all
      (fun (x, (ver, _)) ->
        let* o = P.read t.orecs.(x) in
        let ver', owner' = Orec.unpack o in
        P.return (ver' = ver && (owner' = Orec.none || owner' = tx.id)))
      (P.get tx.rset)

  let read t tx x =
    P.suspend @@ fun () ->
    match List.assoc_opt x (P.get tx.wbuf) with
    | Some v -> P.return (Ok v)
    | None -> (
        match List.assoc_opt x (P.get tx.rset) with
        | Some (_, v) -> P.return (Ok v)
        | None ->
            let* o = P.read t.orecs.(x) in
            let ver, owner = Orec.unpack o in
            if owner <> Orec.none && owner <> tx.id then abort t tx
            else
              let* v = P.read_int t.data.(x) in
              let* o2 = P.read t.orecs.(x) in
              let ver2, owner2 = Orec.unpack o2 in
              if ver2 <> ver || owner2 <> owner then abort t tx
              else
                let* ok = valid t tx in
                if not ok then abort t tx
                else begin
                  P.set tx.rset ((x, (ver, v)) :: P.get tx.rset);
                  P.return (Ok v)
                end)

  let write t tx x v =
    P.suspend @@ fun () ->
    if List.mem_assoc x (P.get tx.wlocks) then begin
      P.set tx.wbuf ((x, v) :: P.get tx.wbuf);
      P.return (Ok ())
    end
    else
      let* o = P.read t.orecs.(x) in
      let ver, owner = Orec.unpack o in
      if owner <> Orec.none then abort t tx
      else
        let* locked =
          P.cas t.orecs.(x)
            ~expected:(Orec.pack ~ver ~owner:Orec.none)
            ~desired:(Orec.pack ~ver ~owner:tx.id)
        in
        if locked then begin
          P.set tx.wlocks ((x, ver) :: P.get tx.wlocks);
          P.set tx.wbuf ((x, v) :: P.get tx.wbuf);
          P.return (Ok ())
        end
        else abort t tx

  let try_commit t tx =
    P.suspend @@ fun () ->
    let* ok = valid t tx in
    if not ok then abort t tx
    else
      (* Install the latest buffered value of each locked object, then
         release with a bumped version. *)
      let* () =
        P.iter
          (fun (x, _) ->
            match List.assoc_opt x (P.get tx.wbuf) with
            | Some v -> P.write t.data.(x) (Value.Int v)
            | None -> P.return ())
          (P.get tx.wlocks)
      in
      let* () =
        P.iter
          (fun (x, ver) ->
            P.write t.orecs.(x) (Orec.pack ~ver:(ver + 1) ~owner:Orec.none))
          (P.get tx.wlocks)
      in
      P.set tx.wlocks [];
      P.return (Ok ())
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
