module L = Lint_fixtures_typed.L10_lib

let () =
  ignore (L.used 1 + L.only_from_a 1 + L.omitted 1 + L.explicit_none ?scale:None 1);
  ignore (List.length L.registry);
  Disco_util.Pool.with_pool ~jobs:1 (fun p -> ignore (L.tally p [| 1 |]))
