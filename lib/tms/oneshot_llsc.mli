(** Load-linked / store-conditional variant of the single-t-object strongly
    progressive TM of Section 5 — the paper's other example of a conditional
    primitive.

    A t-read is a load-linked; an updating [tryC] is a single
    store-conditional, which fails exactly when a conflicting transaction
    committed in between (the link was invalidated), so the TM is strongly
    progressive with {e no version numbers at all} — LL/SC is immune to ABA.
    Same single-object restriction as {!Oneshot}. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
