open Ptm_machine

module Make (P : Proc.S) = struct
  let ( let* ) = P.bind
  let name = "lazy-orec"

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
        Machine.alloc_array machine ~name:"lazy.orec" nobjs
          (Orec.pack ~ver:0 ~owner:Orec.none);
      data =
        Machine.alloc_array machine ~name:"lazy.data" nobjs
          (Value.Int Ptm_core.Tm_intf.init_value);
    }

  type tx = {
    id : int;
    rset : (int * (int * int)) list P.var;
    wbuf : (int * int) list P.var;  (* latest first *)
  }

  let fresh _t ~pid:_ ~id = { id; rset = P.var []; wbuf = P.var [] }

  let valid ?(held = []) t tx =
    P.for_all
      (fun (x, (ver, _)) ->
        let* o = P.read t.orecs.(x) in
        let ver', owner' = Orec.unpack o in
        P.return
          (ver' = ver
          && (owner' = Orec.none || (owner' = tx.id && List.mem_assoc x held))))
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
            if owner <> Orec.none then P.return (Error `Abort)
            else
              let* v = P.read_int t.data.(x) in
              let* o2 = P.read t.orecs.(x) in
              let ver2, owner2 = Orec.unpack o2 in
              if ver2 <> ver || owner2 <> owner then P.return (Error `Abort)
              else
                let* ok = valid t tx in
                if not ok then P.return (Error `Abort)
                else begin
                  P.set tx.rset ((x, (ver, v)) :: P.get tx.rset);
                  P.return (Ok v)
                end)

  let write _t tx x v =
    P.suspend @@ fun () ->
    P.set tx.wbuf ((x, v) :: P.get tx.wbuf);
    P.return (Ok ())

  let wset tx = List.sort_uniq compare (List.map fst (P.get tx.wbuf))

  let release t held =
    P.iter
      (fun (x, ver) -> P.write t.orecs.(x) (Orec.pack ~ver ~owner:Orec.none))
      held

  (* Acquire commit locks in ascending object order (no deadlock: we never
     wait, but ordered acquisition also bounds wasted work). *)
  let rec acquire t tx held = function
    | [] -> P.return (Ok held)
    | x :: rest ->
        let* o = P.read t.orecs.(x) in
        let ver, owner = Orec.unpack o in
        if owner <> Orec.none then P.return (Error held)
        else
          let* locked =
            P.cas t.orecs.(x)
              ~expected:(Orec.pack ~ver ~owner:Orec.none)
              ~desired:(Orec.pack ~ver ~owner:tx.id)
          in
          if locked then acquire t tx ((x, ver) :: held) rest
          else P.return (Error held)

  let try_commit t tx =
    P.suspend @@ fun () ->
    if P.get tx.wbuf = [] then
      let* ok = valid t tx in
      P.return (if ok then Ok () else Error `Abort)
    else
      let* acquired = acquire t tx [] (wset tx) in
      match acquired with
      | Error held ->
          let* () = release t held in
          P.return (Error `Abort)
      | Ok held ->
          let* ok = valid ~held t tx in
          if not ok then
            let* () = release t held in
            P.return (Error `Abort)
          else
            let* () =
              P.iter
                (fun (x, _) ->
                  match List.assoc_opt x (P.get tx.wbuf) with
                  | Some v -> P.write t.data.(x) (Value.Int v)
                  | None -> P.return ())
                held
            in
            let* () =
              P.iter
                (fun (x, ver) ->
                  P.write t.orecs.(x)
                    (Orec.pack ~ver:(ver + 1) ~owner:Orec.none))
                held
            in
            P.return (Ok ())
end

include Make (Proc.Direct)
module Stepwise = Make (Proc.Step)
