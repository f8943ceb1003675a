(* Shared helpers: clocks, sample statistics, /proc readers, the result
   line and the metric table. *)

let now () = Unix.gettimeofday ()
let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* ---- samples ---- *)

(* Nearest-rank percentile over a sorted copy. *)
let percentile q xs =
  match xs with
  | [||] -> nan
  | _ ->
      let a = Array.copy xs in
      Array.sort compare a;
      let n = Array.length a in
      let r = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) r))

let median xs = percentile 0.5 (Array.of_list xs)

(* Growable float buffer: spans and latency samples stay in memory and
   are summarised or written out once the measurement is over. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
  let length b = b.n
  let sum b = Array.fold_left ( +. ) 0. (to_array b)
end

(* Spans recorded around calls into one layer: kept in memory, summed
   for the per-layer figures and written out once the run is over. *)
module Spans = struct
  type t = { name : string; start : Buf.t; dur : Buf.t }

  let origin = now_ns ()
  let create name = { name; start = Buf.create (); dur = Buf.create () }

  let record s f =
    let t0 = now_ns () in
    let r = f () in
    Buf.push s.start (Int64.to_float (Int64.sub t0 origin));
    Buf.push s.dur (ns_since t0);
    r

  let total_ns s = Buf.sum s.dur
  let count s = Buf.length s.dur

  (* One JSON line per span: name, start and duration in ns since the
     benchmark started. *)
  let write path spans =
    let oc = open_out path in
    List.iter
      (fun s ->
        for i = 0 to count s - 1 do
          Printf.fprintf oc "{\"span\":%S,\"start_ns\":%.0f,\"dur_ns\":%.0f}\n"
            s.name s.start.Buf.a.(i) s.dur.Buf.a.(i)
        done)
      spans;
    close_out oc
end

let out_dir = ".perfbench_out"

(* Where a traced run writes its spans. *)
let spans_path name =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  Filename.concat out_dir (name ^ ".spans.jsonl")

(* ---- /proc ---- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let clk_tck = 100.

type proc_sample = {
  cpu_s : float;  (** utime + stime *)
  hwm_kb : int;  (** VmHWM: peak resident set *)
  ctxt : int;  (** voluntary + involuntary context switches *)
}

let zero_sample = { cpu_s = 0.; hwm_kb = 0; ctxt = 0 }

let status_field text key =
  let lines = String.split_on_char '\n' text in
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key ->
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          let v =
            match String.index_opt v ' ' with
            | Some j -> String.sub v 0 j
            | None -> v
          in
          int_of_string_opt v
      | _ -> None)
    lines

(* [pid] as a string: "self" or a number. *)
let proc_sample pid =
  match
    (read_file ("/proc/" ^ pid ^ "/stat"), read_file ("/proc/" ^ pid ^ "/status"))
  with
  | Some stat, Some status ->
      (* fields after the parenthesised command name; utime and stime
         are fields 14 and 15 of the whole line *)
      let rest =
        let i = String.rindex stat ')' in
        String.sub stat (i + 2) (String.length stat - i - 2)
      in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      let ticks k = float_of_string f.(k - 3) in
      let get k = Option.value ~default:0 (status_field status k) in
      {
        cpu_s = (ticks 14 +. ticks 15) /. clk_tck;
        hwm_kb = get "VmHWM";
        ctxt = get "voluntary_ctxt_switches" + get "nonvoluntary_ctxt_switches";
      }
  | _ -> zero_sample

(* ---- host steal time ----

   On a VM the hypervisor can hold a runnable vCPU back; /proc/stat
   counts that as steal.  It comes in bursts, and while a burst lasts
   it inflates every latency and stretches every wall time.  Medians
   here are taken over the least-stolen share of a run's 0.5-s windows,
   explorations or rounds, so a burst moves them as little as possible. *)

(* (steal, all) ticks of every CPU so far. *)
let cpu_ticks () =
  match read_file "/proc/stat" with
  | None -> (0., 0.)
  | Some text ->
      let line = List.hd (String.split_on_char '\n' text) in
      let f =
        List.filter_map float_of_string_opt
          (List.filter (( <> ) "") (String.split_on_char ' ' line))
      in
      let f = Array.of_list f in
      if Array.length f < 8 then (0., 0.)
      else (f.(7), Array.fold_left ( +. ) 0. (Array.sub f 0 8))

module Steal = struct
  type t = { ts : Buf.t; steal : Buf.t; all : Buf.t; mutable next : float }

  let create () = { ts = Buf.create (); steal = Buf.create (); all = Buf.create (); next = 0. }

  (* Sample at most every 0.1 s. *)
  let tick t =
    let n = now () in
    if n >= t.next then begin
      let s, a = cpu_ticks () in
      Buf.push t.ts n;
      Buf.push t.steal s;
      Buf.push t.all a;
      t.next <- n +. 0.1
    end

  (* Steal share of [a, b], from the samples just outside it. *)
  let share t a b =
    let n = Buf.length t.ts in
    if n < 2 then 0.
    else begin
      let i = ref 0 in
      while !i + 1 < n && t.ts.Buf.a.(!i + 1) <= a do incr i done;
      let j = ref !i in
      while !j + 1 < n && t.ts.Buf.a.(!j) < b do incr j done;
      let all = t.all.Buf.a.(!j) -. t.all.Buf.a.(!i) in
      if all <= 0. then 0. else (t.steal.Buf.a.(!j) -. t.steal.Buf.a.(!i)) /. all
    end
end

(* The values of the least-stolen [share] (at least one) of
   [(value, steal share)] pairs, in their original order. *)
let quietest ~share pairs =
  let indexed = List.mapi (fun i (v, s) -> (i, v, s)) pairs in
  let sorted = List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) indexed in
  let k = max 1 (int_of_float (Float.ceil (share *. float_of_int (List.length pairs)))) in
  List.filteri (fun i _ -> i < k) sorted
  |> List.sort (fun (i, _, _) (j, _, _) -> compare i j)
  |> List.map (fun (_, v, _) -> v)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- metrics and the result line ---- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s = "\"" ^ String.escaped s ^ "\""

let print_metrics_table ms =
  List.iter
    (fun { name; unit_; value } ->
      Printf.printf "  %-34s %14.6g %s\n" name value unit_)
    ms

(* What a workload returns. *)
type result = {
  e2e : metric list;
  info : (string * float) list;  (** workload-specific, printed, not gated *)
  layers : metric list;  (** traced runs only *)
  attempted : int;
  failed : int;
}

let result_line ~correct ~attempted ~failed ms =
  let metrics =
    String.concat ", "
      (List.map
         (fun { name; unit_; value } ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_float value) (json_string unit_))
         ms)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed metrics

(* ---- correctness gates ---- *)

(* How far measured parts may exceed the whole they are part of before a
   traced run is rejected: 5%. *)
let reconcile_tolerance = 0.05

let failures : string list ref = ref []


let gate ok what =
  if not ok then begin
    failures := what :: !failures;
    Printf.printf "GATE FAILED: %s\n%!" what
  end

let log fmt = Printf.printf (fmt ^^ "\n%!")
