(** Lock-free word-based STM in the style of Fraser's OSTM/FSTM (the paper's
    reference [12], "Practical lock-freedom").

    Each t-object's header holds either a clean versioned value or a pointer
    to the descriptor of a committing transaction. Commit publishes an
    immutable descriptor (status, write list, read list) and then {e anyone}
    can drive it to completion: acquire the write set in global object order
    with CAS, re-check the read set, decide with a CAS on the status, and
    release. A transaction that finds a header owned by a rival {e helps}
    the rival's commit to completion instead of waiting — no lock can block
    the system, so the TM is lock-free rather than merely progressive.

    Reads are incrementally validated, metadata is strictly per-object, and
    a read applies nontrivial events only when helping a concurrent rival —
    so the TM has {e weak} (not strong) invisible reads and weak DAP: a
    fourth member of the Theorem 3 class, paying the Θ(m²) validation bound
    from a different progress class than the lock-based members. *)

include Ptm_core.Tm_intf.S

module Stepwise : Ptm_core.Tm_intf.S_step
(** The step instance of the same program text, run by a [Steps]
    {!Ptm_machine.Machine}. Helping is an iterative loop over an
    explicit continuation stack, so helping chains of any length run in
    constant OCaml stack, in both instances: no depth limit. *)
