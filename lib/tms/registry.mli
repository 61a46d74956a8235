(** All TM implementations, for generic tests, benches and experiments.

    Every TM is written once over the program signature and comes in both
    forms ({!Ptm_core.Tm_intf.Both}); {!Ptm_core.Runner.spawn} runs an
    entry in a machine's form. The registry keeps one hand-written list per
    family; every other list is a view of those, and {!direct} gives an
    entry's direct-style form. *)

type entry = (module Ptm_core.Tm_intf.Both)

val direct : entry -> Ptm_core.Tm_intf.tm

(** {1 Families} *)

val base : entry list
(** Every general-purpose TM (excludes the single-object TMs, which restrict
    transactions to one t-object). *)

val single : entry list
(** The Section 5 substrates: {!Oneshot} (CAS) and {!Oneshot_llsc}. *)

val x4 : entry list
(** The sharded multi-TM family ({!Sharded.Make} at 4 shards over NOrec,
    TL2, undo-log, SGL and Ofree — names ["norec.x4"] etc.). Excluded from
    {!base}: generic property tests assume the inner TMs' fine-grained
    guarantees, which sharding deliberately forfeits (see {!Sharded}). *)

val cms : entry list
(** The obstruction-free family under every contention manager: ["ofree"]
    (Karma, the only variant also in {!base}), ["ofree+aggr"],
    ["ofree+polite"], ["ofree+ts"]. E18's sweep axis. *)

val ofree_with_cm : Ptm_core.Cm.kind -> entry
(** The {!Ofree} variant running the given contention manager (the [--cm]
    flag's resolution). *)

(** {1 Lookup} *)

val entries : entry list
(** Every registry TM once: {!single}, {!base}, {!x4}, then the {!cms}
    variants not in {!base} — 21 names. *)

val names : string list
(** The names of {!entries}, in order: everything {!find} and {!by_name}
    accept. *)

val find : string -> entry option
val by_name : string -> Ptm_core.Tm_intf.tm option

(** {1 Direct-style views} *)

val all : Ptm_core.Tm_intf.tm list
(** {!base}. *)

val single_object : Ptm_core.Tm_intf.tm list
(** {!single}. *)

val sharded : Ptm_core.Tm_intf.tm list
(** {!x4}. *)

val ofree_cms : Ptm_core.Tm_intf.tm list
(** {!cms}. *)

val validation_class : Ptm_core.Tm_intf.tm list
(** The TMs of {!base} in the Theorem 3 class: weak DAP + (weakly)
    invisible reads. *)
