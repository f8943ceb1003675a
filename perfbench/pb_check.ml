(* The checker workloads.

   explore: Check.Explorer.run in `Throughput mode with the flat codec,
   jobs = 2 (the barrier-free sharded engine), exhausting an adversarial
   vs-stack-faulty graph again and again for the run's duration.

   verify: Analysis.Analyzer.analyze, jobs = 2, on the paper's own
   automata (dvs-impl, to-impl, full-stack), cut at fixed BFS depths.

   Traced runs wrap the automaton's candidates/enabled/step, the codec's
   writer, the subject's key, invariants and state equality (the
   key-injectivity audit) in per-domain timers; every other cost is the remainder of
   wall x jobs. *)

open Prelude
open Pb_util
module Stk = Vs_impl.Stack.Make (Msg_intf.String_msg)

let jobs = 2

(* ---- per-domain accumulators ---- *)

type acc = {
  epoch : int;
  mutable expand : float;
  mutable encode : float;
  mutable key : float;
  mutable inv : float;
  mutable audit : float;
  words0 : float;  (* minor words at this domain's first traced call *)
  mutable words1 : float;  (* ... and at its latest expansion *)
  mutable expanded : int;
}

(* Every traced exploration or round opens a new epoch, and each domain
   starts a fresh accumulator on its first call in it, so untraced work
   between traced ones is never charged. *)
let epoch = Atomic.make 0
let accs : acc list ref = ref []
let accs_lock = Mutex.create ()

let fresh_acc () =
  let a =
    {
      epoch = Atomic.get epoch; expand = 0.; encode = 0.; key = 0.; inv = 0.;
      audit = 0.; words0 = Gc.minor_words (); words1 = Gc.minor_words ();
      expanded = 0;
    }
  in
  Mutex.protect accs_lock (fun () -> accs := a :: !accs);
  a

let acc_key = Domain.DLS.new_key fresh_acc

let get_acc () =
  let a = Domain.DLS.get acc_key in
  if a.epoch = Atomic.get epoch then a
  else begin
    let a = fresh_acc () in
    Domain.DLS.set acc_key a;
    a
  end

let reset_accs () = Mutex.protect accs_lock (fun () -> accs := [])

let sum f = List.fold_left (fun s a -> s +. f a) 0. !accs

(* Whether timers are on, and when the first state was expanded (the end
   of set-up).  The first-call stamp is all an untraced run records. *)
let tracing = ref false
let first_expand = Atomic.make 0.

let timed field f =
  let t0 = now_ns () in
  let r = f () in
  field (get_acc ()) (ns_since t0);
  r

(* [sample] sees every 64th state a domain expands while tracing. *)
let wrap (type s a) ?(sample = fun (_ : s) -> ())
    (module A : Ioa.Automaton.GENERATIVE with type state = s and type action = a)
    : (module Ioa.Automaton.GENERATIVE with type state = s and type action = a) =
  (module struct
    include A

    let candidates rng s =
      if Atomic.get first_expand = 0. then
        ignore (Atomic.compare_and_set first_expand 0. (now ()));
      if not !tracing then A.candidates rng s
      else begin
        let a = get_acc () in
        a.expanded <- a.expanded + 1;
        if a.expanded land 63 = 0 then sample s;
        a.words1 <- Gc.minor_words ();
        timed (fun a d -> a.expand <- a.expand +. d) (fun () -> A.candidates rng s)
      end

    let enabled s x =
      if not !tracing then A.enabled s x
      else timed (fun a d -> a.expand <- a.expand +. d) (fun () -> A.enabled s x)

    let step s x =
      if not !tracing then A.step s x
      else timed (fun a d -> a.expand <- a.expand +. d) (fun () -> A.step s x)
  end)

let wrap1 field f x = if not !tracing then f x else timed field (fun () -> f x)

let wrap2 field f x y =
  if not !tracing then f x y else timed field (fun () -> f x y)

(* Totals per worker domain of each traced exploration or round, one
   JSON line per worker and timer. *)
let write_totals name =
  let path = spans_path name in
  let oc = open_out path in
  List.iteri
    (fun i a ->
      List.iter
        (fun (k, v) ->
          Printf.fprintf oc "{\"worker\":%d,\"span\":%S,\"total_ns\":%.0f}\n" i k v)
        [ ("expand", a.expand); ("encode", a.encode); ("key", a.key);
          ("invariant", a.inv); ("audit", a.audit) ])
    !accs;
  close_out oc;
  log "  per-domain span totals written to %s" path

(* The timed parts may not exceed the whole (wall x jobs) by more than
   [reconcile_tolerance]; the remainder is the untimed rest. *)
let reconcile what parts whole =
  gate (parts <= whole *. (1. +. reconcile_tolerance))
    (Printf.sprintf "%s: timed parts (%.0f ns) exceed wall x jobs (%.0f ns)" what parts whole)

let minor_bytes () =
  sum (fun a -> Float.max 0. (a.words1 -. a.words0)) *. float_of_int (Sys.word_size / 8)

(* ---- explore ---- *)

(* vs-stack-faulty, 2 procs, max_views = 1, max_sends = 1, one payload,
   a budget of one reordered packet: a view change and out-of-order
   delivery in a graph that exhausts in under a second, so a run holds
   about twenty explorations. *)
let explore_cfg =
  let base = Stk.default_config ~payloads:[ "a" ] ~universe:2 in
  { base with Stk.max_views = 1; max_sends = 1 }

let explore_faults () =
  Vs_impl.Fault.adversarial ~max_drops:0 ~max_duplicates:0 ~max_reorders:1 ()

(* Deterministic jobs:1 counts of that graph (Explorer.run
   ~mode:`Deterministic ~jobs:1); every exploration must reproduce them. *)
let explore_states = 77_133
let explore_transitions = 264_450

let codec_field () =
  let f = Stk.codec_state Check.Codec.string in
  { f with Check.Codec.wr = (fun b s -> wrap2 (fun a d -> a.encode <- a.encode +. d) f.wr b s) }

(* The peak resident set (MB) of one call of [f] in a fresh process:
   [f] runs in each of [peak_probes] children forked before the run's
   own work starts, which report their VmHWM through a pipe; the figure
   is the median.  The resident set keeps growing over repeated
   explorations in one process, so a later reading in the benchmark
   process would depend on how many fit in the run. *)
let peak_probes = 3

let fresh_peak_mb f =
  let once () =
    flush stdout;
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        (try ignore (f ()) with _ -> ());
        let kb = string_of_int (proc_sample "self").hwm_kb in
        ignore (Unix.write_substring wr kb 0 (String.length kb));
        Unix._exit 0
    | pid ->
        Unix.close wr;
        Hashtbl.replace Pb_live.children pid ();
        let ic = Unix.in_channel_of_descr rd in
        let kb = In_channel.input_all ic in
        close_in ic;
        ignore (Unix.waitpid [] pid);
        Hashtbl.remove Pb_live.children pid;
        match float_of_string_opt kb with
        | Some kb -> kb /. 1024.
        | None -> nan
  in
  median (List.init peak_probes (fun _ -> once ()))

(* States sampled while tracing, to time the fingerprint on. *)
let samples : Stk.state list ref = ref []
let samples_lock = Mutex.create ()
let keep_sample s = Mutex.protect samples_lock (fun () -> samples := s :: !samples)

type unit_run = {
  wall : float;  (* s *)
  steal : float * float;  (* host (steal, all) CPU ticks during the call *)
  setup : float;  (* s: construction until the first expansion *)
  states : int;
  transitions : int;
  ok : bool;
  metrics : Obs.Metrics.t;
}

let explore_once () =
  Gc.compact ();
  Atomic.set first_expand 0.;
  let t0 = now () in
  let gen = wrap ~sample:keep_sample (Stk.generative_pure explore_cfg) in
  let codec = Check.Codec.make ~id:"vs-stack" ~version:1 (codec_field ()) in
  let init =
    Stk.initial ~faults:(explore_faults ()) ~universe:2 ~p0:(Proc.Set.universe 2) ()
  in
  let metrics = Obs.Metrics.create () in
  let s0, a0 = cpu_ticks () in
  let t1 = now () in
  let o =
    Check.Explorer.run gen ~key:Stk.state_key ~invariants:[] ~max_states:4_000_000
      ~jobs ~state_rng:true ~codec ~mode:`Throughput ~metrics ~init ()
  in
  let t2 = now () in
  let s1, a1 = cpu_ticks () in
  let s = o.Check.Explorer.stats in
  {
    wall = t2 -. t1;
    steal = (s1 -. s0, a1 -. a0);
    setup = Atomic.get first_expand -. t0;
    states = s.states;
    transitions = s.transitions;
    ok =
      (not s.truncated) && o.Check.Explorer.violation = None
      && s.states = explore_states && s.transitions = explore_transitions;
    metrics;
  }



(* Repeat [f] until [seconds] have passed, at least twice.  A traced run
   alternates untraced and traced calls, so the tracing overhead is
   measured under the same conditions; it returns (traced, untraced). *)
let alternate ~seconds ~traced f =
  let stop = now () +. seconds in
  let call on =
    if on then Atomic.incr epoch;
    tracing := on;
    Fun.protect ~finally:(fun () -> tracing := false) f
  in
  let rec go n runs plain =
    if n >= 2 && now () >= stop then (List.rev runs, List.rev plain)
    else if traced then
      let u = call false in
      let t = call true in
      go (n + 1) (t :: runs) (u :: plain)
    else go (n + 1) (call false :: runs) plain
  in
  go 0 [] []

(* [l] cut into blocks of [k] in order, the remainder joining the last
   block. *)
let blocks k l =
  let rec go acc cur n = function
    | [] -> (
        match (acc, cur) with
        | _, [] -> List.rev acc
        | last :: rest, _ when n < k -> List.rev ((last @ List.rev cur) :: rest)
        | _ -> List.rev (List.rev cur :: acc))
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

(* [groups]: single explorations (explore) or rounds of the three
   entries (verify).  Latency and throughput come from the less-stolen
   half of the groups, set-up from all of them.  lat_p50_ms is the
   median of their walls, goodput the median of their rates, and
   lat_p99_ms the median over [tail_blocks] of them of each block's p99
   (its slowest exploration or analysis): a p99 over one run's dozen
   samples would be their maximum, the noisiest figure of all.
   [peak_mb]: see [fresh_peak_mb]. *)
let summarize ~groups ~tail_blocks ~peak_mb =
  let ticks g =
    List.fold_left (fun (s, a) r -> (s +. fst r.steal, a +. snd r.steal)) (0., 0.) g
  in
  let share g = match ticks g with _, 0. -> 0. | s, a -> s /. a in
  let quiet_groups = quietest ~share:0.5 (List.map (fun g -> (g, share g)) groups) in
  let rate g =
    float_of_int (List.fold_left (fun a r -> a + r.states) 0 g)
    /. List.fold_left (fun a r -> a +. r.wall) 0. g
  in
  let walls g = Array.of_list (List.map (fun r -> r.wall *. 1000.) g) in
  let steal, all = ticks (List.concat groups) in
  ( [
      m "setup_s" "s" (median (List.map (fun r -> r.setup) (List.concat groups)));
      m "lat_p50_ms" "ms" (percentile 0.5 (walls (List.concat quiet_groups)));
      m "lat_p99_ms" "ms"
        (median (List.map (fun b -> percentile 0.99 (walls b)) (tail_blocks quiet_groups)));
      m "goodput_per_s" "1/s" (median (List.map rate quiet_groups));
      m "peak_rss_mb" "MB" peak_mb;
    ],
    ("host.steal_pct", if all > 0. then 100. *. steal /. all else 0.) )

(* ---- verify ---- *)

(* (entry, BFS depth bound, pinned states, pinned transitions).  A depth
   bound, unlike a state bound, cuts the level-synchronized search at
   the same states at every job count, so the counts can be pinned; each
   bound gives 7-8k states, so a round of the three takes two to three
   seconds and a run holds about eight. *)
let verify_entries =
  [
    ("dvs-impl", 9, 6_800, 14_109);
    ("to-impl", 11, 6_940, 15_411);
    ("full-stack", 10, 8_196, 15_133);
  ]

let verify_max_states = 200_000

let instrument (type s a) (sub : (s, a) Analysis.Analyzer.subject) :
    (s, a) Analysis.Analyzer.subject =
  let inv (c : s Ioa.Invariant.checked) =
    let add a d = a.inv <- a.inv +. d in
    {
      Ioa.Invariant.inv = { c.inv with holds = wrap1 add c.inv.holds };
      antecedent = Option.map (wrap1 add) c.antecedent;
    }
  in
  {
    sub with
    automaton = wrap sub.automaton;
    key = wrap1 (fun a d -> a.key <- a.key +. d) sub.key;
    invariants = List.map inv sub.invariants;
    equal_state = Option.map (wrap2 (fun a d -> a.audit <- a.audit +. d)) sub.equal_state;
  }

let analyze_once (name, max_depth, states, transitions) =
  Atomic.set first_expand 0.;
  let t0 = now () in
  match Analysis.Registry.find (Analysis.Registry.all ()) name with
  | None -> failwith ("no registry entry " ^ name)
  | Some (Analysis.Registry.Entry e) ->
      let sub = instrument e.subject in
      let s0, a0 = cpu_ticks () in
      let t1 = now () in
      let r =
        Analysis.Analyzer.analyze ~name ~max_states:verify_max_states ~max_depth
          ~jobs sub
      in
      let t2 = now () in
      let s1, a1 = cpu_ticks () in
      {
        wall = t2 -. t1;
        steal = (s1 -. s0, a1 -. a0);
        setup = Atomic.get first_expand -. t0;
        states = r.Analysis.Findings.states;
        transitions = r.Analysis.Findings.transitions;
        ok =
          r.Analysis.Findings.findings = []
          && (not r.Analysis.Findings.truncated)
          && r.Analysis.Findings.states = states
          && r.Analysis.Findings.transitions = transitions;
        metrics = Obs.Metrics.create ();
      }

(* The seeded defect must still be reported. *)
let defect_reported () =
  match Analysis.Registry.find (Analysis.Registry.defects ()) "defect-no-dedup" with
  | None -> false
  | Some (Analysis.Registry.Entry e) ->
      let r = Analysis.Analyzer.analyze ~name:e.name ~max_states:20_000 ~jobs e.subject in
      r.Analysis.Findings.findings <> []

let explore ~seed ~seconds ~traced =
  let peak_mb = fresh_peak_mb explore_once in
  (* one unreported exploration lets the heap grow to its working size *)
  ignore (explore_once ());
  reset_accs ();
  let runs, untraced = alternate ~seconds ~traced explore_once in
  List.iter (fun r -> gate r.ok "explore: counts equal the deterministic jobs:1 values") runs;
  log "  exploration wall (ms)/steal share: %s"
    (String.concat " "
       (List.map
          (fun r ->
            let s, a = r.steal in
            Printf.sprintf "%.0f/%.3f" (r.wall *. 1000.) (if a > 0. then s /. a else 0.))
          runs));
  let e2e, steal =
    summarize ~groups:(List.map (fun r -> [ r ]) runs)
      ~tail_blocks:(fun quiet -> blocks 3 (List.concat quiet)) ~peak_mb
  in
  let failed = List.length (List.filter (fun r -> not r.ok) runs) in
  let info =
    [
      steal;
      ("explorations", float_of_int (List.length runs));
      ("states", float_of_int explore_states);
      ("transitions", float_of_int explore_transitions);
    ]
  in
  let layers =
    if not traced then []
    else begin
      write_totals (Printf.sprintf "explore-seed%d" seed);
      let states = float_of_int (List.fold_left (fun a r -> a + r.states) 0 runs) in
      let trans = float_of_int (List.fold_left (fun a r -> a + r.transitions) 0 runs) in
      let wall_ns = 1e9 *. List.fold_left (fun a r -> a +. r.wall) 0. runs in
      let expand = sum (fun a -> a.expand) and encode = sum (fun a -> a.encode) in
      (* fingerprint: Codec.fingerprint's digest over the sampled states'
         images, charged once per successor as the explorer does *)
      let codec =
        Check.Codec.make ~id:"vs-stack" ~version:1 (Stk.codec_state Check.Codec.string)
      in
      let scratch = Check.Codec.scratch () in
      let samples = !samples in
      let fp_ns = ref 0. in
      List.iter
        (fun s ->
          Check.Codec.encode_into codec scratch s;
          let buf, len = Check.Codec.scratch_contents scratch in
          let t0 = now_ns () in
          ignore (Check.Fingerprint.of_bytes buf ~pos:0 ~len);
          fp_ns := !fp_ns +. ns_since t0)
        samples;
      let fp_per_image = !fp_ns /. float_of_int (max 1 (List.length samples)) in
      let fingerprint = fp_per_image *. trans in
      let rest = (wall_ns *. float_of_int jobs) -. expand -. encode -. fingerprint in
      let cnt n =
        float_of_int
          (List.fold_left (fun a r -> a + Obs.Metrics.count r.metrics n) 0 runs)
      in
      reconcile "explore" (expand +. encode +. fingerprint) (wall_ns *. float_of_int jobs);
      let base = median (List.map (fun r -> r.wall) untraced) in
      let traced_wall = median (List.map (fun r -> r.wall) runs) in
      [
        m "explore.expand_ns" "ns" (expand /. states);
        m "explore.encode_ns" "ns" (encode /. states);
        m "explore.fingerprint_ns" "ns" (fingerprint /. states);
        m "explore.dedup_handoff_ns" "ns" (rest /. states);
        m "explore.transitions_per_state" "count" (trans /. states);
        m "explore.handoffs_per_kstate" "count"
          (cnt "explorer.handoff_batches" /. (states /. 1000.));
        m "explore.ring_full_stalls" "count"
          (cnt "explorer.ring_full_stalls" /. float_of_int (List.length runs));
        m "explore.alloc_bytes_per_state" "B" (minor_bytes () /. states);
        m "explore.attributed_pct" "%"
          (100. *. (expand +. encode +. fingerprint) /. (wall_ns *. float_of_int jobs));
        m "trace.overhead_pct" "%" (100. *. ((traced_wall /. base) -. 1.));
      ]
    end
  in
  { e2e; info; layers; attempted = List.length runs; failed }

let verify ~seed ~seconds ~traced =
  let round () = List.map analyze_once verify_entries in
  let peak_mb = fresh_peak_mb round in
  gate (defect_reported ()) "verify: defect-no-dedup is still reported";
  ignore (round ());
  reset_accs ();
  let rounds, untraced = alternate ~seconds ~traced round in
  let runs = List.concat rounds and untraced = List.concat untraced in
  List.iter
    (fun r -> gate r.ok "verify: zero findings and pinned state/transition counts")
    runs;
  log "  analysis walls per round (ms): %s"
    (String.concat " | "
       (List.map
          (fun g -> String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (r.wall *. 1000.)) g))
          rounds));
  let e2e, steal = summarize ~groups:rounds ~tail_blocks:Fun.id ~peak_mb in
  let failed = List.length (List.filter (fun r -> not r.ok) runs) in
  let info = [ steal; ("analyses", float_of_int (List.length runs)) ] in
  let layers =
    if not traced then []
    else begin
      write_totals (Printf.sprintf "verify-seed%d" seed);
      let states = float_of_int (List.fold_left (fun a r -> a + r.states) 0 runs) in
      let wall_ns = 1e9 *. List.fold_left (fun a r -> a +. r.wall) 0. runs in
      let f g = sum g in
      let expand = f (fun a -> a.expand) and key = f (fun a -> a.key)
      and inv = f (fun a -> a.inv) and audit = f (fun a -> a.audit) in
      let parts = expand +. key +. inv +. audit in
      let rest = (wall_ns *. float_of_int jobs) -. parts in
      reconcile "verify" parts (wall_ns *. float_of_int jobs);
      let total l = List.fold_left (fun a r -> a +. r.wall) 0. l in
      [
        m "verify.expand_ns" "ns" (expand /. states);
        m "verify.key_ns" "ns" (key /. states);
        m "verify.invariant_ns" "ns" (inv /. states);
        m "verify.audit_ns" "ns" (audit /. states);
        m "verify.other_ns" "ns" (rest /. states);
        m "verify.alloc_bytes_per_state" "B" (minor_bytes () /. states);
        m "verify.attributed_pct" "%" (100. *. parts /. (wall_ns *. float_of_int jobs));
        m "trace.overhead_pct" "%"
          (100. *. ((total runs /. float_of_int (List.length runs))
                    /. (total untraced /. float_of_int (List.length untraced)) -. 1.));
      ]
    end
  in
  { e2e; info; layers; attempted = List.length runs; failed }
