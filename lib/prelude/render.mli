(** Buffer writers: the one renderer of every value a [state_key] prints.

    Each atom ({!Gid}, {!View}, {!Label}, ...) defines a single
    [to_buffer : Buffer.t -> t -> unit]; its [to_string] and Format [pp]
    derive from it here, so keys, findings and [pp_state] output cannot
    drift apart.  No atom rendering holds a break hint, so printing one as
    a single Format token lays out exactly as printing it piecewise.  The
    combinators below mirror the Format idioms the keys were written in:
    [bindings ~sep:";" Gid.Map.iter Gid.to_buffer ":" w] is
    [pp_print_list] with separator [";"] over ["%a:%a"] bindings. *)

val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string

(** [pp write] prints [to_string write x] as one Format token. *)
val pp : (Buffer.t -> 'a -> unit) -> Format.formatter -> 'a -> unit

(** [int buf n] appends [n] in decimal. *)
val int : Buffer.t -> int -> unit

(** [option ~none write] writes [none] for [None]. *)
val option :
  none:string -> (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

(** [iter ~sep iter write buf c] writes every element [iter] visits in
    [c], with [sep] between consecutive elements. *)
val iter :
  sep:string ->
  (('a -> unit) -> 'c -> unit) ->
  (Buffer.t -> 'a -> unit) ->
  Buffer.t ->
  'c ->
  unit

(** [bindings ~sep iter wk kv wv buf m] writes each binding of the map [m]
    ([iter] is the map's own) as key, [kv], value, with [sep] between
    consecutive bindings. *)
val bindings :
  sep:string ->
  (('k -> 'v -> unit) -> 'm -> unit) ->
  (Buffer.t -> 'k -> unit) ->
  string ->
  (Buffer.t -> 'v -> unit) ->
  Buffer.t ->
  'm ->
  unit

(** {2 Cut layout}

    The VS and DVS specification keys are, byte for byte, what
    [Format.pp_print_list] with its default separator (a [pp_print_cut]
    break hint) prints into a fresh formatter at the default margin.
    Format turns some of those hints into ["\n"] (always the last one,
    since the outermost box never closes before the flush), so the keys
    contain layout newlines.  They carry no information and are kept only
    so the keys stay byte-identical.

    A [layout] reproduces those bytes cheaply: text is written straight
    into a scratch buffer, and Format sees one [pp_print_string] token per
    stretch of text and one [pp_print_cut] per separator.  Format decides a
    break only from the sizes of the tokens between hints, so merging
    adjacent text into one token does not change the layout. *)

type layout

(** [layout buf] starts a layout that appends to [buf], at column 0. *)
val layout : Buffer.t -> layout

(** The scratch buffer plain text is written to. *)
val text : layout -> Buffer.t

(** [cut_bindings l iter wk kv wv m] writes each binding of the map [m]
    as key, [kv], value, [";"] (the specification keys' entry form), with
    a cut hint between consecutive bindings: the layout of
    [Format.pp_print_list] with its default separator. *)
val cut_bindings :
  layout ->
  (('k -> 'v -> unit) -> 'm -> unit) ->
  (Buffer.t -> 'k -> unit) ->
  string ->
  (Buffer.t -> 'v -> unit) ->
  'm ->
  unit

(** [finish l] lays out everything written and flushes it to the buffer
    [l] was started on. *)
val finish : layout -> unit
