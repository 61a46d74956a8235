let all : Ptm_core.Tm_intf.tm list =
  [ (module Dstm); (module Lazy_tm); (module Undolog); (module Ostm);
    (module Tl2); (module Tl2x); (module Norec); (module Mvtm);
    (module Visread); (module Sgl); (module Ofree) ]

let validation_class : Ptm_core.Tm_intf.tm list =
  [ (module Dstm); (module Lazy_tm); (module Undolog); (module Ostm);
    (module Ofree) ]

let escape_class : Ptm_core.Tm_intf.tm list =
  [ (module Tl2); (module Norec); (module Mvtm); (module Visread);
    (module Sgl) ]

let single_object : Ptm_core.Tm_intf.tm list =
  [ (module Oneshot); (module Oneshot_llsc) ]

(* The obstruction-free family under every contention manager. "ofree" is
   the Karma default and the only variant in [all] (one row per TM in the
   registry-wide sweeps); the others are reachable by name and swept
   explicitly by E18 and the --cm flag. *)
let ofree_cms : Ptm_core.Tm_intf.tm list =
  [ (module Ofree); (module Ofree.Aggressive); (module Ofree.Polite);
    (module Ofree.Timestamp) ]

let ofree_with_cm (kind : Ptm_core.Cm.kind) : Ptm_core.Tm_intf.tm =
  match kind with
  | Ptm_core.Cm.Karma -> (module Ofree)
  | Ptm_core.Cm.Aggressive -> (module Ofree.Aggressive)
  | Ptm_core.Cm.Polite -> (module Ofree.Polite)
  | Ptm_core.Cm.Timestamp -> (module Ofree.Timestamp)

(* The sharded family: the load engine's throughput play. Four shards is
   the registry instantiation ("norec.x4" etc.); other widths are built
   by applying [Sharded.Make] to another [Config]. *)
module X4 = struct
  let shards = 4
end

module Norec_x4 = Sharded.Make (X4) (Norec)
module Tl2_x4 = Sharded.Make (X4) (Tl2)
module Undolog_x4 = Sharded.Make (X4) (Undolog)
module Sgl_x4 = Sharded.Make (X4) (Sgl)
module Ofree_x4 = Sharded.Make (X4) (Ofree)

let sharded : Ptm_core.Tm_intf.tm list =
  [ (module Norec_x4); (module Tl2_x4); (module Undolog_x4);
    (module Sgl_x4); (module Ofree_x4) ]

let by_name n =
  List.find_opt
    (fun (module T : Ptm_core.Tm_intf.S) -> String.equal T.name n)
    (single_object @ all @ sharded @ ofree_cms)

let stepwise : Ptm_core.Tm_intf.tm_step list =
  [ (module Undolog.Stepwise); (module Ostm.Stepwise);
    (module Norec.Stepwise); (module Sgl.Stepwise);
    (module Ofree.Stepwise) ]

let ofree_cms_stepwise : Ptm_core.Tm_intf.tm_step list =
  [ (module Ofree.Stepwise); (module Ofree.Stepwise_aggressive);
    (module Ofree.Stepwise_polite); (module Ofree.Stepwise_timestamp) ]

let ofree_with_cm_step (kind : Ptm_core.Cm.kind) : Ptm_core.Tm_intf.tm_step =
  match kind with
  | Ptm_core.Cm.Karma -> (module Ofree.Stepwise)
  | Ptm_core.Cm.Aggressive -> (module Ofree.Stepwise_aggressive)
  | Ptm_core.Cm.Polite -> (module Ofree.Stepwise_polite)
  | Ptm_core.Cm.Timestamp -> (module Ofree.Stepwise_timestamp)

module Norec_x4_step = Sharded.Make_step (X4) (Norec.Stepwise)
module Sgl_x4_step = Sharded.Make_step (X4) (Sgl.Stepwise)
module Ofree_x4_step = Sharded.Make_step (X4) (Ofree.Stepwise)

let sharded_stepwise : Ptm_core.Tm_intf.tm_step list =
  [ (module Norec_x4_step); (module Sgl_x4_step); (module Ofree_x4_step) ]

let stepwise_by_name n =
  List.find_opt
    (fun (module T : Ptm_core.Tm_intf.S_step) -> String.equal T.name n)
    (stepwise @ sharded_stepwise @ ofree_cms_stepwise)
