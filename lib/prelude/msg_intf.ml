(** The interface a message alphabet must satisfy to instantiate the VS and
    DVS service specifications.  The services are parametric in the messages
    they carry ([M] / [M_c] in the paper), so each layer of the stack picks
    its own alphabet: opaque client payloads for DVS clients, tagged wire
    messages ("info" / "registered" / client) for the VS instance inside
    DVS-IMPL, and label/summary messages for the TO application. *)

module type S = sig
  type t

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit

  (** Appends the [pp] rendering to a buffer, without a formatter — the
      form state keys use. *)
  val to_buffer : Buffer.t -> t -> unit
end

(** Opaque string payloads, the default client alphabet. *)
module String_msg : S with type t = string = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let to_buffer = Buffer.add_string
  let pp ppf m = Render.pp to_buffer ppf m
end
