module Stats = Disco_util.Stats

let section title = Printf.printf "\n== %s ==\n" title
let kv key value = Printf.printf "  %s: %s\n" key value

let cdf_series ~label samples =
  if Array.length samples = 0 then Printf.printf "%s (no samples)\n" label
  else
    List.iter
      (fun (v, f) -> Printf.printf "%s %.6g %.4f\n" label v f)
      (Stats.cdf_points samples 20)

let summary_line ~label samples =
  if Array.length samples = 0 then Printf.printf "  %-28s (no samples)\n" label
  else begin
    let s = Stats.summarize samples in
    Printf.printf "  %-28s mean=%-10.4g p50=%-10.4g p95=%-10.4g max=%-10.4g\n"
      label s.Stats.mean s.Stats.p50 s.Stats.p95 s.Stats.max
  end

let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    let cells =
      List.mapi (fun c cell -> Printf.sprintf "%-*s" (List.nth widths c) cell) row
    in
    Printf.printf "  %s\n" (String.concat "  " cells)
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let series_point ~label ~x ~y = Printf.printf "%s %.6g %.6g\n" label x y
