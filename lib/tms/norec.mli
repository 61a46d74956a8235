(** NOrec (Dalessandro, Spear, Scott — PPoPP 2010, the paper's reference
    [6]): a single global sequence lock and value-based validation; no
    per-object metadata at all.

    Uncontended read-only transactions cost O(m) steps, but any concurrent
    commit forces whole-read-set revalidation, so the worst case is again
    quadratic. The single sequence lock is the anti-DAP extreme: every pair of
    transactions contends on it. Reads are invisible. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. *)
