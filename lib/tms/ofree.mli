(** Obstruction-free word-based STM in the style of DSTM (Herlihy, Luchangco,
    Moir & Scherer, "Software transactional memory for dynamic-sized data
    structures"), the arm of the "Why TM Should Not Be Obstruction-Free"
    (arXiv:1502.02725) / "Cost of Concurrency in TM" (arXiv:1103.1302)
    study (E18).

    Each t-object's header is a locator: either a clean versioned value or
    the owning transaction's (status word, old value, new value) triple.
    Ownership is acquired — and {e stolen} — by CAS; the status word is
    CASed exactly once from active to a final decided state, by the owner
    (commit / self-abort) or by any rival (steal). No lock is ever held, so
    a crashed owner cannot block a peer: the peer aborts the corpse with one
    CAS and takes the object. Contrast {!Dstm}, whose encounter-time write
    locks starve rivals when the owner crashes (E13's lock-based split).

    Conflicts with an {e active} owner are resolved by a pluggable
    contention manager ({!Ptm_core.Cm}): Karma by default ("ofree"), with
    Aggressive / Polite / Timestamp variants registered as "ofree+aggr",
    "ofree+polite", "ofree+ts". Reads are invisible except when stealing
    (weak, not strong, invisibility); validation is pessimistic — a
    read-set entry under a foreign active owner is invalid, which closes
    the validate-then-commit race obstruction-freedom would otherwise
    reopen. Single CAS per acquisition plus lazy cleanup is exactly where
    the papers' extra step/RMR cost comes from; E18 measures it. *)

include Ptm_core.Tm_intf.S

module type CONFIG = sig
  val cm : Ptm_core.Cm.kind
end

module Make (_ : CONFIG) (P : Ptm_machine.Proc.S) :
  Ptm_core.Tm_intf.Generic with type 'a m := 'a P.t
(** The family, parameterized by contention manager and written once over
    the program signature; named "ofree" for Karma and "ofree+<cm>"
    otherwise. *)

module Stepwise : Ptm_core.Tm_intf.S_step
(** The Karma default's step instance, run by a [Steps]
    {!Ptm_machine.Machine}. *)

(** The other contention managers, each in both forms. *)

module Aggressive : Ptm_core.Tm_intf.Both
module Polite : Ptm_core.Tm_intf.Both
module Timestamp : Ptm_core.Tm_intf.Both
