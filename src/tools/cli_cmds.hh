/**
 * @file
 * merlin_cli subcommand handlers, one translation unit per family:
 * cmd_workload.cc (list/run/asm), cmd_campaign.cc (campaign),
 * cmd_suite.cc (suite/store merge), cmd_client.cc (the
 * daemon client: submit/status/result/shutdown).  main() in
 * merlin_cli.cc only dispatches; all parsing lives in cli_spec.
 */

#ifndef MERLIN_TOOLS_CLI_CMDS_HH
#define MERLIN_TOOLS_CLI_CMDS_HH

#include <string>

#include "tools/cli_spec.hh"

namespace merlin::tools
{

// cmd_workload.cc
int cmdList();
int cmdRun(const Args &args);
int cmdAsm(const Args &args);

// cmd_campaign.cc
int cmdCampaign(const Args &args);

// cmd_suite.cc
int cmdSuite(const std::string &manifest_path, const Args &args);
int cmdStoreMerge(int argc, char **argv, int start);

// cmd_client.cc — talk to a running merlin_serve over its socket.
int cmdSubmit(const std::string &manifest_path, const Args &args);
int cmdStatus(const Args &args);
int cmdResult(const Args &args);
int cmdShutdown(const Args &args);

} // namespace merlin::tools

#endif // MERLIN_TOOLS_CLI_CMDS_HH
