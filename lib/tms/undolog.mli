(** Undo-log TM (TinySTM/Ennals-style encounter-time locking with in-place
    writes): a writer locks the orec, writes the new value directly into the
    data cell, and keeps the old value in a private undo log; abort restores
    the data before releasing the lock.

    Readers never see dirty data — the orec is locked for the writer's whole
    transaction, and the read protocol (orec / data / orec) aborts on a
    foreign lock. Reads are invisible and incrementally validated, metadata
    is strictly per-object, so this TM is a third member of the Theorem 3
    class (weak DAP + invisible reads): it pays the Θ(m²) validation bound
    like {!Dstm} and {!Lazy_tm}, with a different write-visibility
    strategy (the eager/lazy/undo ablation triple). *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
