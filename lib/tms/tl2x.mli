(** TL2 with timestamp extension (TinySTM's lazy snapshot extension): when a
    t-read meets a version newer than the snapshot, instead of aborting the
    transaction re-validates its read set and, if intact, {e extends} the
    snapshot to the current clock and retries.

    The trade is the paper's theme in miniature: extension removes TL2's
    false aborts (the Lemma 2 construction now returns the new value instead
    of aborting!) but pays read-set re-validation on every extension — under
    the Theorem 3 adversary the read cost grows quadratically again, even
    though the TM is not weak DAP. Giving up the abort does not buy back the
    validation. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
