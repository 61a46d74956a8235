(** Read-write-lock TM with {e visible} reads (TLRW-flavoured, the paper's
    reference [9]): each t-read registers the reader in the object's orec
    with a CAS, so writers observe readers and abort instead of invalidating
    them.

    Two-phase locking makes the TM opaque with {e no read validation at all}
    — t-reads cost O(1) and a read-only transaction costs O(m), escaping the
    Theorem 3 bound while keeping weak DAP. The escape hatch is precisely the
    violated premise: reads apply nontrivial events (they are visible). The
    ablation for experiment E6. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
