(* Lint waivers: parse, match, and report the stale ones. *)

type t = {
  pass : string;
  proc : string option;
  addr : int option;
  reason : string;
  line : int;
}

let parse content : (t list, string) result =
  let entries = ref [] in
  let error = ref None in
  List.iteri
    (fun idx line ->
      if !error = None then
        let lineno = idx + 1 in
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line <> "" then
          match
            String.split_on_char ' ' line
            |> List.filter (fun s -> s <> "")
          with
          | pass :: proc :: addr :: (_ :: _ as reason) ->
            let proc = if proc = "*" then None else Some proc in
            let addr =
              if addr = "*" then Ok None
              else
                (* Canonical decimal only, so a stale waiver is reported
                   in the text it was written in: "0x1f", "1_0", "+31"
                   and "031" are rejected. *)
                match int_of_string_opt addr with
                | Some a when string_of_int a = addr -> Ok (Some a)
                | _ ->
                  Error
                    (Fmt.str
                       "line %d: address must be a decimal integer or '*', \
                        got %S"
                       lineno addr)
            in
            (match addr with
            | Error e -> error := Some e
            | Ok addr ->
              entries :=
                { pass; proc; addr; reason = String.concat " " reason; line = lineno }
                :: !entries)
          | _ ->
            error :=
              Some
                (Fmt.str
                   "line %d: expected '<pass> <proc|*> <addr|*> <reason...>'"
                   lineno))
    (String.split_on_char '\n' content);
  match !error with
  | Some e -> Error e
  | None -> Ok (List.rev !entries)

let load path : (t list, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | content -> parse content
  | exception Sys_error e -> Error e

let matches w (f : Finding.t) =
  w.pass = f.Finding.pass
  && (match w.proc with None -> true | Some p -> p = f.Finding.proc)
  && match w.addr with None -> true | Some a -> f.Finding.addr = Some a

let apply waivers findings =
  let used = Array.make (List.length waivers) false in
  let kept =
    List.filter
      (fun (f : Finding.t) ->
        match f.Finding.severity with
        | Finding.Info -> true
        | Finding.Error | Finding.Warning ->
          let waived = ref false in
          List.iteri
            (fun i w ->
              if matches w f then begin
                used.(i) <- true;
                waived := true
              end)
            waivers;
          not !waived)
      findings
  in
  let unused =
    List.filteri (fun i _ -> not used.(i)) waivers
  in
  (kept, unused)
