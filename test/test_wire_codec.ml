(* The fast-path wire codec against the typed header: encode_header then
   decode_into must agree with load_packet bit-for-bit on every field —
   at boundary label widths (0-, 1-, 4- and 5-bit neighbor-rank labels),
   at the field maxima (anchor/waypoint at n-1,
   extra_bytes at 0xFFFF, fbound at infinity / max_float / the smallest
   denormal, vbound at the unsigned-64 extremes) and on Gen-driven random
   headers (seeded via QCheck, so every failure is replayable). *)

module Graph = Disco_graph.Graph
module Rng = Disco_util.Rng
module D = Disco_core.Dataplane

let line n =
  let b = Graph.Builder.create n in
  for v = 0 to n - 2 do
    Graph.Builder.add_edge b v (v + 1) 1.0
  done;
  Graph.Builder.build b

let star leaves =
  let b = Graph.Builder.create (leaves + 1) in
  for leaf = 1 to leaves do
    Graph.Builder.add_edge b 0 leaf 1.0
  done;
  Graph.Builder.build b

let pp_header h =
  Printf.sprintf
    "{dst=%d mode=%d labels=[%s] way=%d anchor=%d fbound=%h vbound=%Ld \
     extra=%d}"
    h.D.dst (D.mode_of_phase h.D.phase)
    (String.concat ";" (List.map string_of_int h.D.labels))
    h.D.waypoint h.D.anchor h.D.fbound h.D.vbound h.D.extra_bytes

(* [decode_into] of the header encoded at [buf.(pos..)] against
   [load_packet] of the typed header, field by field: floats by IEEE bit
   pattern, so -0.0, denormals and infinities are all exact. *)
let check_decode g ~src buf ~pos (h : D.header) =
  let wire = D.packet_create g in
  let direct = D.packet_create g in
  D.decode_into g wire buf ~pos ~src;
  D.load_packet direct h;
  Alcotest.(check int) "mode" direct.D.pmode wire.D.pmode;
  Alcotest.(check int) "dst" direct.D.pdst wire.D.pdst;
  Alcotest.(check int) "waypoint" direct.D.pway wire.D.pway;
  Alcotest.(check int) "anchor" direct.D.panchor wire.D.panchor;
  Alcotest.(check int64) "fbound bits"
    (Int64.bits_of_float direct.D.pfs.(D.fs_fbound))
    (Int64.bits_of_float wire.D.pfs.(D.fs_fbound));
  Alcotest.(check int) "vbound hi" direct.D.pvb_hi wire.D.pvb_hi;
  Alcotest.(check int) "vbound lo" direct.D.pvb_lo wire.D.pvb_lo;
  Alcotest.(check int) "extra" direct.D.pextra wire.D.pextra;
  Alcotest.(check int) "route pos" direct.D.proute_pos wire.D.proute_pos;
  Alcotest.(check int) "route end" direct.D.proute_end wire.D.proute_end;
  for i = wire.D.proute_pos to wire.D.proute_end - 1 do
    Alcotest.(check int)
      (Printf.sprintf "route label %d" i)
      direct.D.proute.(i) wire.D.proute.(i)
  done

(* One round trip at an arbitrary arena offset: size accounting, then the
   scratch-packet decode against a direct load. *)
let roundtrip ?(pos = 0) g ~src (h : D.header) =
  let size = D.encoded_size g ~src h in
  let buf = Bytes.make (pos + size) '\xAA' in
  let written = D.encode_header g ~src h buf ~pos in
  Alcotest.(check int) "encoded_size = bytes written" size written;
  check_decode g ~src buf ~pos h

(* The seven phases, one per wire mode. *)
let phases =
  [
    D.Seek { tried_proxy = false };
    D.Seek { tried_proxy = true };
    D.Steer { tried_proxy = false };
    D.Steer { tried_proxy = true };
    D.Carry;
    D.Greedy;
    D.Fallback;
  ]

let mk ?(labels = []) ?(phase = D.Carry) ?(waypoint = -1) ?(anchor = -1)
    ?(fbound = infinity) ?(vbound = Int64.minus_one) ?(extra_bytes = 0) dst =
  { D.dst; phase; labels; waypoint; anchor; fbound; vbound; extra_bytes }

(* A valid label chain is a walk along edges: draw one by random steps. *)
let random_chain g rng src len =
  let rec go u k acc =
    if k = 0 then List.rev acc
    else
      let deg = Graph.degree g u in
      if deg = 0 then List.rev acc
      else
        let v = Graph.neighbor_at g u (Rng.int rng deg) in
        go v (k - 1) (v :: acc)
  in
  go src len []

let test_boundary_label_widths () =
  (* Line: interior labels cost 1 bit, the endpoints' cost 0 bits — the
     degree-1 edge case where a hop is encoded in no bits at all. *)
  let g = line 9 in
  roundtrip g ~src:0 (mk ~labels:[ 1; 2; 3; 4; 5; 6; 7; 8 ] 8);
  roundtrip g ~src:4 (mk ~labels:[ 3; 2; 1; 0 ] 0);
  roundtrip g ~src:0 (mk ~labels:[ 1 ] 1);
  roundtrip g ~src:3 (mk 3);
  (* Star with 16 leaves: hub labels exactly 4 bits (power of two). *)
  let g = star 16 in
  roundtrip g ~src:3 (mk ~labels:[ 0; 16 ] 16);
  (* 17 leaves pushes hub labels to 5 bits. *)
  let g = star 17 in
  roundtrip g ~src:17 (mk ~labels:[ 0; 1 ] 1);
  (* Label bits straddling byte boundaries: 3 hub visits = 15 bits. *)
  roundtrip g ~src:17 (mk ~labels:[ 0; 4; 0; 9; 0; 2 ] 2)

let test_field_maxima () =
  let g = line 16 in
  let n = Graph.n g in
  roundtrip g ~src:0
    (mk
       ~labels:[ 1; 2; 3 ]
       ~phase:(D.Steer { tried_proxy = true })
       ~waypoint:(n - 1) ~anchor:(n - 1) ~fbound:max_float
       ~vbound:Int64.minus_one (* max unsigned 64: the VRR "no bound" *)
       ~extra_bytes:0xFFFF 3);
  roundtrip g ~src:5
    (mk ~fbound:(Float.ldexp 1.0 (-1074)) (* smallest denormal *)
       ~vbound:Int64.min_int 9);
  roundtrip g ~src:5 (mk ~fbound:(-0.0) ~vbound:Int64.max_int 9);
  roundtrip g ~src:5 (mk ~fbound:infinity ~vbound:0L 0);
  (* Longest chain the line affords: n-1 labels through the codec. *)
  let g = line 300 in
  roundtrip g ~src:0 (mk ~labels:(List.init 299 (fun i -> i + 1)) 299)

let test_every_phase_mode () =
  let g = star 5 in
  Alcotest.(check (list int)) "one phase per wire mode" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.map D.mode_of_phase phases);
  List.iter (fun phase -> roundtrip g ~src:2 (mk ~phase ~labels:[ 0; 4 ] 4)) phases

let test_arena_packing () =
  (* Two headers back to back in one buffer, decoded independently — the
     batched walker's arena discipline. *)
  let g = star 17 in
  let h1 = mk ~labels:[ 0; 9 ] ~extra_bytes:7 9 in
  let h2 = mk ~labels:[ 0; 1; 0; 16 ] ~fbound:2.5 16 in
  let s1 = D.encoded_size g ~src:3 h1 in
  let s2 = D.encoded_size g ~src:5 h2 in
  let buf = Bytes.make (s1 + s2) '\x00' in
  ignore (D.encode_header g ~src:3 h1 buf ~pos:0 : int);
  ignore (D.encode_header g ~src:5 h2 buf ~pos:s1 : int);
  check_decode g ~src:3 buf ~pos:0 h1;
  check_decode g ~src:5 buf ~pos:s1 h2

let test_non_neighbor_label_rejected () =
  let g = line 4 in
  let h = mk ~labels:[ 3 ] 3 in
  (* 3 is not adjacent to 0: the encoder must refuse rather than emit a
     rank the decoder would misresolve. *)
  let buf = Bytes.create 64 in
  Alcotest.(check bool) "encode_header rejects non-neighbor label" true
    (try
       ignore (D.encode_header g ~src:0 h buf ~pos:0 : int);
       false
     with Invalid_argument _ -> true)

(* Gen-driven fuzz: random graph, random walk chain, random field soup —
   seeded through QCheck, so a failure prints the replayable seed. *)
let prop_random_headers =
  Helpers.qtest "random headers round-trip through the wire codec" ~count:100
    Helpers.seed_arb (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let rng = Rng.create (Rng.derive seed 91) in
      let n = Graph.n g in
      let pick_special_float r =
        match Rng.int r 6 with
        | 0 -> infinity
        | 1 -> 0.0
        | 2 -> max_float
        | 3 -> Float.ldexp 1.0 (-1074)
        | 4 -> -0.0
        | _ -> Rng.float r 1e12
      in
      let pick_vbound r =
        match Rng.int r 5 with
        | 0 -> Int64.minus_one
        | 1 -> 0L
        | 2 -> Int64.max_int
        | 3 -> Int64.min_int
        | _ -> Rng.bits64 r
      in
      let ok = ref true in
      for _ = 1 to 20 do
        let src = Rng.int rng n in
        let h =
          mk
            ~labels:(random_chain g rng src (Rng.int rng 9))
            ~phase:(List.nth phases (Rng.int rng 7))
            ~waypoint:(Rng.int rng (n + 1) - 1)
            ~anchor:(Rng.int rng (n + 1) - 1)
            ~fbound:(pick_special_float rng) ~vbound:(pick_vbound rng)
            ~extra_bytes:(Rng.int rng 0x10000)
            (Rng.int rng n)
        in
        let pos = Rng.int rng 32 in
        (try roundtrip ~pos g ~src h
         with _ ->
           ok := false;
           Printf.eprintf "codec roundtrip failed (seed %d): %s\n" seed
             (pp_header h))
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "boundary label widths" `Quick test_boundary_label_widths;
    Alcotest.test_case "field maxima" `Quick test_field_maxima;
    Alcotest.test_case "every phase mode" `Quick test_every_phase_mode;
    Alcotest.test_case "arena packing" `Quick test_arena_packing;
    Alcotest.test_case "non-neighbor label rejected" `Quick
      test_non_neighbor_label_rejected;
    prop_random_headers;
  ]
