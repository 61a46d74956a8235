(** Sharded multi-TM: [C.shards] independent inner TM instances keyed by
    object hash (object [x] lives in shard [x mod shards]), composed into a
    single TM by a commit-fence / seqlock two-phase protocol:

    - uncached t-reads are one-shot {e mini-transactions} against the
      owning shard, sampled inside a stable window (per-shard fence clear
      and seqlock unchanged across the sample), and value-validated
      NOrec-style whenever any touched shard's seqlock moves. Validation
      is selective: it re-samples only the cached reads of shards whose
      seqlock moved since the transaction last validated them;
    - t-writes are buffered; try_commit of an updating transaction
      acquires the fences of every touched shard, written or read, in
      ascending order. Under those fences no publication can be in
      flight, so it validates with one seqlock read per touched shard and
      a bare mini-read of each cached read of a shard whose seqlock
      moved. It then publishes each written shard's writes as a
      write-only inner transaction and bumps that shard's seqlock before
      releasing the fences.

    Single-shard transactions take the fast path — a read-only commit
    costs zero events and a transaction touching one shard acquires one
    fence; only genuinely cross-shard commits pay multi-fence
    coordination. With
    [shards = 1] every operation passes straight through to the inner TM,
    event for event ({!Make} with [shards = 1] is trace-identical to its
    argument — the registry differential test pins this).

    The composition is opaque for any opaque inner TM (crashes included: a
    fence-holder crash starves that shard but cannot expose a torn commit)
    but deliberately forfeits the finer properties — sharding is the
    load-engine throughput play, not a progress result. *)

module type Config = sig
  val shards : int
end

(** The protocol is one body over the program signature
    {!Ptm_machine.Proc.S}; [Make] and [Make_step] are its direct and step
    instances, and run the identical event sequence over the two instances
    of one inner TM. *)

module Make (_ : Config) (_ : Ptm_core.Tm_intf.S) : Ptm_core.Tm_intf.S

module Make_step (_ : Config) (_ : Ptm_core.Tm_intf.S_step) :
  Ptm_core.Tm_intf.S_step
