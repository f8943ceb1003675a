type value = Str of string | Int of int | Float of float | Bool of bool

type kind = Span_open | Span_close | Point

type event = {
  seq : int;
  kind : kind;
  component : string;
  cls : string;
  span : int option;
  payload : (string * value) list;
}

let kind_str = function
  | Span_open -> "span_open"
  | Span_close -> "span_close"
  | Point -> "point"

let pp_value ppf = function
  | Str s -> Format.fprintf ppf "%S" s
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.pp_print_bool ppf b

let pp_event ppf e =
  Format.fprintf ppf "#%d %s %s/%s%a [%a]" e.seq (kind_str e.kind) e.component
    e.cls
    (fun ppf -> function
      | None -> ()
      | Some s -> Format.fprintf ppf " (span %d)" s)
    e.span
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k pp_value v))
    e.payload

let equal_value a b =
  match (a, b) with
  | Str a, Str b -> String.equal a b
  | Int a, Int b -> a = b
  | Float a, Float b -> Float.equal a b
  | Bool a, Bool b -> a = b
  | _ -> false

let equal_event a b =
  a.seq = b.seq && a.kind = b.kind
  && String.equal a.component b.component
  && String.equal a.cls b.cls
  && Option.equal ( = ) a.span b.span
  && List.length a.payload = List.length b.payload
  && List.for_all2
       (fun (ka, va) (kb, vb) -> String.equal ka kb && equal_value va vb)
       a.payload b.payload

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* Each sink owns a mutex serializing sequence assignment and the write
   itself, so one sink may be shared by several emitting domains (the
   parallel explorer, engines stepped from worker domains) and still
   produce a dense, monotone, interleaving-free event stream. *)
type sink = { mu : Mutex.t; mutable next_seq : int; write : event -> unit }

let make write = { mu = Mutex.create (); next_seq = 0; write }

let emit sink ~kind ~component ~cls ?span payload =
  Mutex.lock sink.mu;
  let seq = sink.next_seq in
  sink.next_seq <- seq + 1;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink.mu)
    (fun () -> sink.write { seq; kind; component; cls; span; payload });
  seq

let point sink ~component ~cls payload =
  ignore (emit sink ~kind:Point ~component ~cls payload)

let span_open sink ~component ~cls payload =
  emit sink ~kind:Span_open ~component ~cls payload

let span_close sink ~component ~cls ~span payload =
  ignore (emit sink ~kind:Span_close ~component ~cls ~span payload)

let emitted sink =
  Mutex.lock sink.mu;
  let n = sink.next_seq in
  Mutex.unlock sink.mu;
  n

let memory ?(capacity = 65536) () =
  let q : event Queue.t = Queue.create () in
  let sink =
    make (fun e ->
        Queue.add e q;
        if Queue.length q > capacity then ignore (Queue.pop q))
  in
  (* drain under the sink mutex: the queue is mutated by [write] only,
     which always runs with the mutex held *)
  ( sink,
    fun () ->
      Mutex.lock sink.mu;
      let es = List.of_seq (Queue.to_seq q) in
      Mutex.unlock sink.mu;
      es )

let null () = make ignore

let callback f = make f

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let value_json = function
  | Str s -> Json.Str s
  | Int n -> Json.Int n
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let event_json e =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("kind", Json.Str (kind_str e.kind));
      ("component", Json.Str e.component);
      ("class", Json.Str e.cls);
      ("span", match e.span with None -> Json.Null | Some s -> Json.Int s);
      ("payload", Json.Obj (List.map (fun (k, v) -> (k, value_json v)) e.payload));
    ]

let event_to_string e = Json.to_string (event_json e)

(* Crash-safe: the whole line (terminator included) is assembled first
   and handed to the channel as one write, then flushed, so the channel
   buffer is empty between events and a killed writer tears at most the
   line in flight — every preceding line is a complete event
   ([read_jsonl_prefix] recovers the prefix). *)
let to_channel oc =
  make (fun e ->
      output_string oc (event_to_string e ^ "\n");
      flush oc)

let ( let* ) r f = Result.bind r f

let value_of_json = function
  | Json.Str s -> Ok (Str s)
  | Json.Int n -> Ok (Int n)
  | Json.Float f -> Ok (Float f)
  | Json.Bool b -> Ok (Bool b)
  | _ -> Error "payload values must be scalars"

let event_of_json j =
  let field name =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let* seq =
    match field "seq" with
    | Ok (Json.Int n) -> Ok n
    | Ok _ -> Error "seq must be an integer"
    | Error e -> Error e
  in
  let* kind =
    match field "kind" with
    | Ok (Json.Str "span_open") -> Ok Span_open
    | Ok (Json.Str "span_close") -> Ok Span_close
    | Ok (Json.Str "point") -> Ok Point
    | Ok _ -> Error "unknown kind"
    | Error e -> Error e
  in
  let str name =
    match field name with
    | Ok (Json.Str s) -> Ok s
    | Ok _ -> Error (Printf.sprintf "%s must be a string" name)
    | Error e -> Error e
  in
  let* component = str "component" in
  let* cls = str "class" in
  let* span =
    match field "span" with
    | Ok Json.Null -> Ok None
    | Ok (Json.Int n) -> Ok (Some n)
    | Ok _ -> Error "span must be null or an integer"
    | Error e -> Error e
  in
  let* payload =
    match field "payload" with
    | Ok (Json.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            let* v = value_of_json v in
            Ok ((k, v) :: acc))
          (Ok []) fields
        |> Result.map List.rev
    | Ok _ -> Error "payload must be an object"
    | Error e -> Error e
  in
  Ok { seq; kind; component; cls; span; payload }

let event_of_string line =
  let* j = Json.of_string line in
  event_of_json j

let read_jsonl ic =
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | "" -> go (lineno + 1) acc
    | line -> (
        match event_of_string line with
        | Ok e -> go (lineno + 1) (e :: acc)
        | Error msg -> Error (lineno, msg))
  in
  go 1 []

(* Crash-tolerant variant: a SIGKILL'd writer leaves a file whose last
   line may be torn mid-write (the [to_channel] sink flushes per event,
   so every earlier line is complete).  Decode the valid prefix and
   report where it stopped instead of failing the whole file. *)
let read_jsonl_prefix ic =
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> (List.rev acc, None)
    | "" -> go (lineno + 1) acc
    | line -> (
        match event_of_string line with
        | Ok e -> go (lineno + 1) (e :: acc)
        | Error msg -> (List.rev acc, Some (lineno, msg)))
  in
  go 1 []
