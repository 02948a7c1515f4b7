(* The run's output: named metrics with units, the result line the
   benchmark contract reads, and the run record written beside it. *)

type metric = { name : string; value : float; unit : string }

type t = { mutable metrics : metric list (* newest first *) }

let create () = { metrics = [] }
let add t name unit value = t.metrics <- { name; value; unit } :: t.metrics
let metrics t = List.rev t.metrics

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let finite t = List.for_all (fun m -> Float.is_finite m.value) t.metrics

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
           (number m.value) m.unit)
       ms)

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (metrics_json ms)

(* Peak resident set of this process, from /proc (Linux). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.0
          | exception _ -> acc)
        nan
        (String.split_on_char '\n' s)

(* Nearest rank: the lower middle of an even count; nan when empty. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  if Array.length a = 0 then nan else Disco_util.Stats.percentile a 0.5

let mean xs = Disco_util.Stats.mean (Array.of_list xs)
