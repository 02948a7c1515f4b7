let () = ignore (Lint_fixtures_typed.L10_lib.only_from_b 1)
