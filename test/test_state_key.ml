(* Byte identity of the string state keys and of [pp_state].

   The keys are dedup identities and, on entries that draw candidates from
   a per-state RNG, the RNG seed (the fingerprint of the key), so a single
   changed byte changes which graph those entries explore.  Each registry
   entry (healthy and seeded-defect) is explored BFS at jobs:1 under a
   2,000-state bound; one digest pins the concatenated keys of the states
   it expands and one their concatenated [pp_state] renderings.  The
   pinned values were computed from the Format-based renderers the buffer
   writers replaced.

   The VS and DVS specification keys keep the line breaks Format's default
   [pp_print_list] separator (a cut hint) put into them; one literal
   assertion pins that layout newline so that removing it is a deliberate
   key change, not an accident. *)

open Prelude
module An = Analysis.Analyzer
module Reg = Analysis.Registry

let max_states = 2_000

(* The states one jobs:1 exploration expands, in observation order.
   Invariants are dropped so defect entries yield their graph instead of
   stopping at the seeded failure. *)
let observed (type s a) (sub : (s, a) An.subject) : s list =
  let acc = ref [] in
  let _ =
    Check.Explorer.run sub.automaton ~key:sub.key ~invariants:[] ~seed:[| 0 |]
      ~max_states ~jobs:1 ~state_rng:true
      ~observe:(fun o -> acc := o.Check.Explorer.obs_state :: !acc)
      ~init:sub.init ()
  in
  List.rev !acc

let digest render states =
  let buf = Buffer.create 4096 in
  List.iter (fun s -> Buffer.add_string buf (render s)) states;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (entry, states observed, key digest, pp_state digest) *)
let golden =
  [
    ("vs-spec", 1924,
     "b64df13bb4ff27b18c1b9a0ba3292849", "10896f72d54c2e2249e0745913506a5f");
    ("dvs-spec", 364,
     "8b90dcc9f07ac8a0121750218f3bbb46", "53c6e63184d17d9b7d11c7f70cc63894");
    ("dvs-impl", 950,
     "eb7d4836f18604c60d88ef1d4ff12adf", "bc7c3b2b9512132e7ca7b272102d1d38");
    ("to-spec", 241,
     "98e8b608e679c80de36b8c5f819c2040", "227234ec6f65bd168ca1083cb949e8c4");
    ("to-impl", 1132,
     "f909c6587cedd5a908ecc7b1e386e20e", "d980ab756c8e0ab7ac6e049201148ba8");
    ("vs-stack", 952,
     "a3325d4ea8dc12be67a4d84aa5abd027", "8c76e55979461421e623cab8a06dab95");
    ("vs-stack-faulty", 900,
     "49e1110cecd14e38e91553300b88e53e", "70e523e470e3a9bdffbd1ff3afbd9f99");
    ("full-stack", 904,
     "b48d6743647085f7b47183d5245c8805", "fd3022c19f1ad7610a3cf98c98b7c1d7");
    ("defect-no-dedup", 1176,
     "6d9423c9ed64572bee706729d923059e", "444b790670dd472f0c193f70851ebcc2");
    ("defect-no-retransmit", 1173,
     "403d19289ded16e1713503187ee824ac", "42f1121639c2e52ca5e6236307021a7d");
    ("defect-no-dedup-invariant", 1176,
     "6d9423c9ed64572bee706729d923059e", "444b790670dd472f0c193f70851ebcc2");
  ]

let golden_entry (Reg.Entry e) =
  let sub = e.subject in
  let states = observed sub in
  let keys = digest sub.An.key states in
  let pps = digest (Format.asprintf "%a" sub.An.pp_state) states in
  match List.find_opt (fun (n, _, _, _) -> n = e.name) golden with
  | None -> Alcotest.failf "no golden digests pinned for %s" e.name
  | Some (_, n, want_keys, want_pps) ->
      Alcotest.(check int)
        (e.name ^ ": states observed")
        n (List.length states);
      Alcotest.(check string) (e.name ^ ": key digest") want_keys keys;
      Alcotest.(check string) (e.name ^ ": pp_state digest") want_pps pps

let golden_all () = List.iter golden_entry (Reg.all () @ Reg.defects ())

module Vss = Vs.Vs_spec.Make (Msg_intf.String_msg)

let spec_layout_newline () =
  Alcotest.(check string) "two-process initial key"
    "C{⟨g0,{p0,p1}⟩}|V[p0=g0;\np1=g0;]|Q[]|P[]|N[]|S[]"
    (Vss.state_key (Vss.initial (Proc.Set.of_list [ 0; 1 ])))

let () =
  Alcotest.run "state-key"
    [
      ( "golden",
        [
          Alcotest.test_case "key and pp_state digests per entry" `Quick
            golden_all;
          Alcotest.test_case "spec key keeps its layout newline" `Quick
            spec_layout_newline;
        ] );
    ]
