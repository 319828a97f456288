(** The shard map: one small checksummed file binding a partitioned
    deployment together.

    A sharded store on disk is K snapshot files plus this manifest,
    which records — per shard — the snapshot's filename, byte length
    and whole-file CRC, and the entity id ranges the shard holds, plus
    the catalog union (global entity count per tag).  A coordinator
    reads the manifest alone to learn the topology; {!validate} then
    proves each snapshot file is the exact one the manifest was written
    against before any worker loads it.

    {b File layout} (all integers big-endian; [str] = u32 length +
    bytes):

    {v
      offset  size  field
      0       4     magic "XMF\x01"
      4       1     format version (this build: 1)
      5       4     shard count K
      9       ...   catalog union: n_tags (u32), then per tag:
                    tag (str) · total entity count (u32)
      ...           K shard entries: file (str) · byte length (u32) ·
                    file CRC-32 (u32) · n_tags x (start u32, count u32)
                    in catalog order
      end-4   4     CRC-32 of bytes [4, end-4)
    v}

    Decoding is total: any byte sequence yields either a manifest or
    the typed {!Xmark_persist.Corrupt} — bad magic, version skew,
    truncation, checksum mismatch, or a shard map that is not a
    partition (per tag, shard ranges must tile [[0, total)] in order:
    no gap, no overlap).  Hostile manifests are a fuzz target
    ([xmark_fuzz --target shard]), so every count field is vetted
    against the remaining bytes before allocation. *)

type entry = {
  file : string;  (** snapshot filename, relative to the manifest's dir *)
  bytes : int;  (** snapshot file length *)
  crc : int;  (** CRC-32 of the whole snapshot file *)
  ranges : (string * (int * int)) list;
      (** per entity tag, [(start, count)] — same shape as
          {!Partitioner.shard.ranges}, in catalog order *)
}

type t = {
  shards : entry array;  (** in shard order *)
  totals : (string * int) list;  (** catalog union: tag → global count *)
}

val encode : t -> string
(** Deterministic: the same manifest always encodes to the same bytes.
    @raise Invalid_argument if the map is not a partition (the writer
    refuses to produce a manifest {!decode} would reject). *)

val decode : string -> t
(** @raise Xmark_persist.Corrupt on any damage (see above). *)

val write : dir:string -> t -> unit
(** Encode to [dir/]{!filename} atomically (temp file + rename). *)

val read : dir:string -> t
(** Decode [dir/]{!filename}.
    @raise Xmark_persist.Corrupt on damage or a missing manifest. *)

val validate : dir:string -> t -> unit
(** Prove the snapshot files are the ones the manifest binds: each
    shard's file must exist under [dir] with exactly the recorded byte
    length and whole-file CRC.
    @raise Xmark_persist.Corrupt naming the first offending file. *)

val of_partition : files:string list -> dir:string -> Partitioner.t -> t
(** Build the manifest for a partition whose shard snapshots were just
    written to [files] (relative to [dir], in shard order): lengths and
    CRCs are computed from the files on disk.
    @raise Invalid_argument if [files] and the partition disagree on
    K. *)
