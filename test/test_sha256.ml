module Sha256 = Disco_hash.Sha256

(* Lowercase hex of [Sha256.digest msg], the form the vectors are in. *)
let hex msg =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq (Sha256.digest msg))))

(* FIPS 180-4 / NIST CAVP test vectors. *)
let vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
  ]

let test_vectors () =
  List.iter
    (fun (msg, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "sha256(%S)" (String.sub msg 0 (min 16 (String.length msg))))
        expected (hex msg))
    vectors

let test_million_a () =
  let msg = String.make 1_000_000 'a' in
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex msg)

let test_digest_length () =
  Alcotest.(check int) "32 bytes" 32 (String.length (Sha256.digest "anything"))

let test_block_boundaries () =
  (* Padding edge cases: lengths 55, 56, 63, 64, 65 straddle the block and
     length-field boundaries. Cross-check against a second computation of
     the same input to guard determinism, and distinctness across sizes. *)
  let digests =
    List.map (fun len -> Sha256.digest (String.make len 'x')) [ 55; 56; 63; 64; 65 ]
  in
  let distinct = List.sort_uniq compare digests in
  Alcotest.(check int) "all distinct" (List.length digests) (List.length distinct);
  Alcotest.(check string) "deterministic"
    (hex (String.make 56 'x'))
    (hex (String.make 56 'x'))

let prop_avalanche =
  Helpers.qtest "different inputs, different digests" ~count:100
    QCheck.(pair small_string small_string)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let suite =
  [
    Alcotest.test_case "FIPS vectors" `Quick test_vectors;
    Alcotest.test_case "million 'a'" `Slow test_million_a;
    Alcotest.test_case "digest length" `Quick test_digest_length;
    Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
    prop_avalanche;
  ]
