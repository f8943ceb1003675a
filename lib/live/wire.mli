(** The live runtime's wire protocol: every byte that crosses a socket
    between an endpoint daemon ([bin/dvsd]) and the hub is one
    {!frame}, encoded by the same framed {!Check.Codec} machinery the
    checker uses for counterexample files — magic, id, version,
    body-length and a 128-bit checksum, so a truncated or corrupted
    frame is rejected ([Error _]), never mis-decoded.

    On the stream each frame is preceded by a 4-byte big-endian length
    of its codec image ({!to_wire}); {!module-Reader} reassembles frames
    from arbitrary read chunks (short reads, coalesced writes).

    Client payloads are opaque strings ({!Prelude.Msg_intf.String_msg},
    the stack's default alphabet), so the engine packets ride
    [Vs_impl.Packet.codec Check.Codec.string]. *)

type packet = string Vs_impl.Packet.t

type frame =
  | Hello of { proc : Prelude.Proc.t }
      (** first frame on a connection: the endpoint names itself *)
  | Pkt of { src : Prelude.Proc.t; dst : Prelude.Proc.t; pkt : packet }
      (** engine traffic, routed (and faulted) by the hub's proxy *)
  | View_note of Prelude.View.t
      (** hub → endpoint: membership service issues a view *)
  | Client of string  (** hub → endpoint: inject one client send *)
  | Trace_line of string
      (** endpoint → hub: one JSONL {!Obs.Trace} event line, shipped to
          the collector for online monitoring *)
  | Snapshot_req  (** hub → endpoint: request a delivery snapshot *)
  | Snapshot of {
      proc : Prelude.Proc.t;
      views : (Prelude.Gid.t * (string * Prelude.Proc.t) list) list;
          (** per view, the delivered prefix in delivery order
              ({!Vs_impl.Engine.Make.delivered_prefix}) *)
    }
  | Shutdown  (** hub → endpoint: drain and exit cleanly *)

val pp : Format.formatter -> frame -> unit

(** The framed codec (id ["live-wire"], version 1). *)
val codec : frame Check.Codec.t

(** One frame's framed image (no stream length prefix). *)
val encode : frame -> bytes

(** Inverse of {!encode}: magic/id/version/length/checksum are all
    checked, so any truncation or mutation is an [Error]. *)
val decode : bytes -> (frame, string) result

(** A delivered prefix as a framed image (id ["live-prefix"]), for
    byte-for-byte cross-process agreement checks. *)
val prefix_codec : (string * Prelude.Proc.t) list Check.Codec.t

(** {2 Stream framing} *)

(** Hard upper bound on one frame's image (16 MiB); {!module-Reader}
    rejects lengths beyond it instead of allocating. *)
val max_frame : int

(** [4-byte big-endian image length · image]. *)
val to_wire : frame -> bytes

(** Incremental frame reassembly from a byte stream. *)
module Reader : sig
  type t

  val create : unit -> t

  (** Append [n] bytes of [src] starting at [off]. *)
  val feed : t -> bytes -> int -> int -> unit

  (** The next complete frame, if the buffer holds one.  [Ok None] means
      feed more bytes.  [Error _] — an out-of-range length or a frame
      image {!decode} rejects — is sticky: the stream is corrupt and the
      connection should be dropped. *)
  val next : t -> (frame option, string) result

  (** Bytes buffered but not yet consumed as frames. *)
  val pending : t -> int
end
