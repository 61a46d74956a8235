module Tm = Ptm_core.Tm_intf

type entry = (module Tm.Both)

let direct (module T : Tm.Both) : Tm.tm = (module T)

(* The families, one hand-written list each; every other list below is a
   view of these. *)

let base : entry list =
  [ (module Dstm); (module Lazy_tm); (module Undolog); (module Ostm);
    (module Tl2); (module Tl2x); (module Norec); (module Mvtm);
    (module Visread); (module Sgl); (module Ofree) ]

let single : entry list = [ (module Oneshot); (module Oneshot_llsc) ]

(* The sharded family: the load engine's throughput play. Four shards is
   the registry instantiation ("norec.x4" etc.); other widths are built
   by applying [Sharded.Make] to another [Config]. *)
module Four_shards (T : Tm.Both) = struct
  module C = struct
    let shards = 4
  end

  include Sharded.Make (C) (T)
  module Stepwise = Sharded.Make_step (C) (T.Stepwise)
end

let x4 : entry list =
  [ (module Four_shards (Norec)); (module Four_shards (Tl2));
    (module Four_shards (Undolog)); (module Four_shards (Sgl));
    (module Four_shards (Ofree)) ]

(* The obstruction-free family under every contention manager. "ofree" is
   the Karma default and the only variant in [base] (one row per TM in the
   registry-wide sweeps); the others are reachable by name and swept
   explicitly by E18 and the --cm flag. *)
let cms : entry list =
  [ (module Ofree); (module Ofree.Aggressive); (module Ofree.Polite);
    (module Ofree.Timestamp) ]

let ofree_with_cm (kind : Ptm_core.Cm.kind) : entry =
  match kind with
  | Ptm_core.Cm.Karma -> (module Ofree)
  | Ptm_core.Cm.Aggressive -> (module Ofree.Aggressive)
  | Ptm_core.Cm.Polite -> (module Ofree.Polite)
  | Ptm_core.Cm.Timestamp -> (module Ofree.Timestamp)

let name_of (module T : Tm.Both) = T.name

let entries =
  let in_base e = List.exists (fun b -> name_of b = name_of e) base in
  single @ base @ x4 @ List.filter (fun e -> not (in_base e)) cms

let names = List.map name_of entries
let find n = List.find_opt (fun e -> String.equal (name_of e) n) entries
let by_name n = Option.map direct (find n)
let all = List.map direct base
let single_object = List.map direct single
let sharded = List.map direct x4
let ofree_cms = List.map direct cms

(* The Theorem 3 class, by its premises: weak DAP and invisible reads
   (the weak form suffices). *)
let validation_class =
  List.filter
    (fun (module T : Tm.S) ->
      T.props.Tm.weak_dap && T.props.Tm.weak_invisible_reads)
    all
