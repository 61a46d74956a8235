(** Versioned ownership records shared by the orec-based TMs.

    An orec packs a version number and an owner transaction id into one base
    object value: [Pair (Int version, Int owner)], with owner [-1] meaning
    unlocked. Keeping all per-object metadata in a single base object makes
    the TMs strictly data-partitioned, hence weak DAP. *)

open Ptm_machine

val none : int
(** The "no owner" marker, [-1]. *)

val pack : ver:int -> owner:int -> Value.t
val unpack : Value.t -> int * int  (** [(ver, owner)] *)
