module Json = Disco_util.Json

type entry = {
  figure : string;
  router : string;
  samples : int;
  stretch_first_mean : float;
  stretch_first_max : float;
  stretch_later_mean : float;
  stretch_later_max : float;
  state_mean : float;
  state_max : float;
  failures : int;
  route_calls : int;
  resolution_fallbacks : int;
  messages : int;
  elapsed_s : float;
}

let entries : entry list ref = ref []
let current = ref "-"
let reset () = entries := []
let set_figure id = current := id

(* disco-lint: allow L8 read on the calling domain: tasks share record/current_figure lexically but the engine invokes them only after the merge *)
let current_figure () = !current

(* disco-lint: allow L8 write on the calling domain: tasks share record/current_figure lexically but the engine invokes them only after the merge *)
let record e = entries := e :: !entries
let all () = List.rev !entries

let entry_to_json e =
  Json.Obj
    [
      ("figure", Json.Str e.figure);
      ("router", Json.Str e.router);
      ("samples", Json.Int e.samples);
      ("stretch_first_mean", Json.Num e.stretch_first_mean);
      ("stretch_first_max", Json.Num e.stretch_first_max);
      ("stretch_later_mean", Json.Num e.stretch_later_mean);
      ("stretch_later_max", Json.Num e.stretch_later_max);
      ("state_mean", Json.Num e.state_mean);
      ("state_max", Json.Num e.state_max);
      ("failures", Json.Int e.failures);
      ("route_calls", Json.Int e.route_calls);
      ("resolution_fallbacks", Json.Int e.resolution_fallbacks);
      ("messages", Json.Int e.messages);
      ("elapsed_s", Json.Num e.elapsed_s);
    ]

let to_json () = Json.to_string (Json.Arr (List.map entry_to_json (all ())))

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json ());
      output_char oc '\n')
