#include "workload/app_profile.hh"

#include <map>

#include "util/logging.hh"

namespace hp
{

namespace
{

/** Builds the registry of the 11 evaluated workloads. */
std::map<std::string, AppProfile>
makeRegistry()
{
    std::map<std::string, AppProfile> reg;

    auto add = [&reg](AppProfile p) {
        reg[p.name] = std::move(p);
    };

    // --- Go web frameworks (large, stable request handlers) ---
    {
        AppProfile p;
        p.name = "beego";
        p.binary = "beego";
        p.binarySeed = 0xbee60;
        p.requestSeed = 0x1001;
        p.numStages = 5;
        p.routinesPerStage = {1, 3, 4, 5, 1};
        p.funcsPerRoutine = 48;
        p.sharedUtilFuncs = 340;
        p.utilsPerRoutine = 70;
        p.coldLibraries = 42;
        p.requestTypes = 10;
        p.rowsMin = 3;
        p.rowsMax = 7;
        p.branchJitter = 1;
        p.callJitter = 0;
        p.typeSensitivePercent = 2;
        add(p);
    }
    {
        AppProfile p;
        p.name = "gin";
        p.binary = "gin";
        p.binarySeed = 0x61717;
        p.requestSeed = 0x1002;
        p.numStages = 5;
        p.routinesPerStage = {1, 3, 4, 5, 1};
        p.funcsPerRoutine = 50;
        p.sharedUtilFuncs = 340;
        p.utilsPerRoutine = 74;
        p.coldLibraries = 42;
        p.requestTypes = 10;
        p.rowsMin = 4;
        p.rowsMax = 9;
        p.branchJitter = 1;
        p.callJitter = 0;
        p.typeSensitivePercent = 3;
        add(p);
    }
    {
        AppProfile p;
        p.name = "echo";
        p.binary = "echo";
        p.binarySeed = 0xec000;
        p.requestSeed = 0x1003;
        p.numStages = 5;
        p.routinesPerStage = {1, 4, 5, 6, 2};
        p.funcsPerRoutine = 48;
        p.sharedUtilFuncs = 320;
        p.utilsPerRoutine = 72;
        p.coldLibraries = 30;
        p.requestTypes = 12;
        p.rowsMin = 3;
        p.rowsMax = 7;
        p.branchJitter = 1;
        p.callJitter = 0;
        p.typeSensitivePercent = 2;
        add(p);
    }

    // --- Caddy web server (HTTP/1-2-3, smaller handlers) ---
    {
        AppProfile p;
        p.name = "caddy";
        p.binary = "caddy";
        p.binarySeed = 0xcadd1;
        p.requestSeed = 0x1004;
        p.numStages = 4;
        p.routinesPerStage = {1, 3, 4, 1};
        p.funcsPerRoutine = 48;
        p.sharedUtilFuncs = 360;
        p.utilsPerRoutine = 56;
        p.coldLibraries = 56;
        p.requestTypes = 14;
        p.rowsMin = 2;
        p.rowsMax = 6;
        p.branchJitter = 3;
        p.callJitter = 1;
        p.typeSensitivePercent = 5;
        add(p);
    }

    // --- DGraph graph database (big binary, noisy control flow) ---
    {
        AppProfile p;
        p.name = "dgraph";
        p.binary = "dgraph";
        p.binarySeed = 0xd64af;
        p.requestSeed = 0x1005;
        p.numStages = 6;
        p.routinesPerStage = {1, 4, 5, 6, 4, 1};
        p.funcsPerRoutine = 28;
        p.sharedUtilFuncs = 420;
        p.utilsPerRoutine = 64;
        p.coldLibraries = 90;
        p.requestTypes = 18;
        p.rowsMin = 5;
        p.rowsMax = 12;
        p.branchJitter = 5;
        p.callJitter = 1;
        p.typeSensitivePercent = 10;
        add(p);
    }

    // --- gorm ORM with PostgreSQL ---
    {
        AppProfile p;
        p.name = "gorm";
        p.binary = "gorm";
        p.binarySeed = 0x60aa1;
        p.requestSeed = 0x1006;
        p.numStages = 5;
        p.routinesPerStage = {1, 3, 5, 4, 1};
        p.funcsPerRoutine = 26;
        p.sharedUtilFuncs = 330;
        p.utilsPerRoutine = 58;
        p.coldLibraries = 40;
        p.requestTypes = 12;
        p.rowsMin = 5;
        p.rowsMax = 13;
        p.branchJitter = 4;
        p.callJitter = 1;
        p.typeSensitivePercent = 7;
        add(p);
    }

    // --- MySQL under three benchmarks (shared binary) ---
    auto mysqlBase = []() {
        AppProfile p;
        p.binary = "mysql";
        p.binarySeed = 0x3150a;
        p.numStages = 6;
        p.routinesPerStage = {1, 4, 6, 8, 4, 1};
        p.funcsPerRoutine = 16;
        p.sharedUtilFuncs = 420;
        p.utilsPerRoutine = 36;
        p.coldLibraries = 70;
        p.rowsMin = 5;
        p.rowsMax = 11;
        p.branchJitter = 5;
        p.callJitter = 1;
        p.typeSensitivePercent = 10;
        return p;
    };
    {
        AppProfile p = mysqlBase();
        p.name = "mysql-sysbench";
        p.requestSeed = 0x1007;
        p.requestTypes = 10;
        p.typeZipfTheta = 0.6;
        add(p);
    }
    {
        AppProfile p = mysqlBase();
        p.name = "mysql-ycsb";
        p.requestSeed = 0x1008;
        p.requestTypes = 6;
        p.typeZipfTheta = 0.99;
        p.rowsMin = 3;
        p.rowsMax = 7;
        add(p);
    }
    {
        AppProfile p = mysqlBase();
        p.name = "mysql-sibench";
        p.requestSeed = 0x1009;
        p.requestTypes = 4;
        p.typeZipfTheta = 0.4;
        p.rowsMin = 6;
        p.rowsMax = 14;
        add(p);
    }

    // --- TiDB under two benchmarks (shared binary; biggest program,
    //     smallest/shortest Bundles per Table 4) ---
    auto tidbBase = []() {
        AppProfile p;
        p.binary = "tidb";
        p.binarySeed = 0x71d00;
        p.numStages = 7;
        p.routinesPerStage = {1, 5, 8, 10, 8, 5, 1};
        p.funcsPerRoutine = 13;
        p.sharedUtilFuncs = 480;
        p.utilsPerRoutine = 30;
        p.coldLibraries = 150;
        p.rowsMin = 2;
        p.rowsMax = 4;
        p.branchJitter = 4;
        p.callJitter = 1;
        p.typeSensitivePercent = 9;
        return p;
    };
    {
        AppProfile p = tidbBase();
        p.name = "tidb-sysbench";
        p.requestSeed = 0x100a;
        p.requestTypes = 10;
        p.typeZipfTheta = 0.6;
        add(p);
    }
    {
        AppProfile p = tidbBase();
        p.name = "tidb-tpcc";
        p.requestSeed = 0x100b;
        p.requestTypes = 20;
        p.typeZipfTheta = 0.8;
        add(p);
    }

    return reg;
}

const std::map<std::string, AppProfile> &
registry()
{
    static const std::map<std::string, AppProfile> reg = makeRegistry();
    return reg;
}

} // namespace

const AppProfile &
appProfile(const std::string &name)
{
    auto it = registry().find(name);
    if (it == registry().end())
        fatal("unknown workload: " + name);
    return it->second;
}

const std::vector<std::string> &
allWorkloads()
{
    static const std::vector<std::string> names = {
        "beego", "caddy", "dgraph", "echo", "gin", "gorm",
        "mysql-sysbench", "tidb-sysbench", "tidb-tpcc",
        "mysql-ycsb", "mysql-sibench",
    };
    return names;
}

const std::vector<std::string> &
allBinaries()
{
    static const std::vector<std::string> names = {
        "beego", "caddy", "dgraph", "echo", "gin", "gorm",
        "mysql", "tidb",
    };
    return names;
}

const std::string &
workloadForBinary(const std::string &binary)
{
    static const std::map<std::string, std::string> map = {
        {"beego", "beego"},   {"caddy", "caddy"},
        {"dgraph", "dgraph"}, {"echo", "echo"},
        {"gin", "gin"},       {"gorm", "gorm"},
        {"mysql", "mysql-sysbench"}, {"tidb", "tidb-tpcc"},
    };
    auto it = map.find(binary);
    if (it == map.end())
        fatal("unknown binary: " + binary);
    return it->second;
}

} // namespace hp
